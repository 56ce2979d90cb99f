package c

// Get exports get to the external test package.
func Get(b Box) int { return b.get() }
