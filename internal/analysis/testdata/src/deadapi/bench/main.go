// Command bench stands in for the repository's bench/ module: a second
// module that sees the fixture packages through export data only.
package main

import "fixtures/deadapi/internal/lib"

func main() {
	lib.UsedByBench()
}
