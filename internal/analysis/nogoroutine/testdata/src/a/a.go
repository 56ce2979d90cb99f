// Package a is golden-test input for the nogoroutine analyzer: raw
// concurrency in the deterministic core must be flagged.
package a

import (
	"sync" // want `import of sync in the deterministic core`
)

func work() {}

func spawns() {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	go work() // want `raw goroutine in the deterministic core`
}

func channels() {
	ch := make(chan int, 1) // want `raw channel in the deterministic core`
	ch <- 1                 // want `raw channel send in the deterministic core`
	<-ch                    // want `raw channel receive in the deterministic core`
	select {}               // want `select in the deterministic core`
}

func allowedSpawn() {
	//simcheck:allow nogoroutine testdata exercises the line allowlist
	go work()
}
