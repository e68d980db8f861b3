// Command app is the fixture module's only non-test user of lib and of the
// root-level facade package.
package main

import (
	"fmt"

	"fixtures/deadapi"
	"fixtures/deadapi/internal/lib"
)

type measurer interface{ Measure() lib.Unit }

func main() {
	t := deadapi.Things()
	fmt.Fprint(t, "hello")
	lib.UsedByOther()
	var m measurer = t
	fmt.Println(t.Used(), lib.Total(t), m.Measure())
}
