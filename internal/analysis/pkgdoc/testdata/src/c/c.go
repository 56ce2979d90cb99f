// Package c is the package under test of the loader's export_test.go
// case: its external test reaches an unexported method through a helper
// that an in-package test file exports.
package c

// Box holds one value.
type Box struct{ v int }

// New returns a Box holding v.
func New(v int) Box { return Box{v: v} }

func (b Box) get() int { return b.v }
