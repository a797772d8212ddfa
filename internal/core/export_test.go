package core

// PrefixHits returns how many runs have restored a stored prefix
// snapshot so far in this process.
func PrefixHits() uint64 { return prefixHits.Load() }
