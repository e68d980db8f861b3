// Command bench stands in for the repository's bench/ module: a second
// module that sees the fixture packages through export data only.
package main

import (
	"fixtures/deadapi/internal/lib"
	"fixtures/deadapi/internal/server"
)

func main() {
	lib.UsedByBench()
	_ = server.NewClient("localhost:0")
}
