// Package fake is test support: only a _test.go file imports it, so its
// exported symbols are exempt although no non-test file names them.
package fake

func Answer() int { return 42 }

var Unused = 0
