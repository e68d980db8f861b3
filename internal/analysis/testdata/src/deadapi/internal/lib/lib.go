// Package lib seeds deadapi findings: each exported symbol carrying a want
// is named by no non-test file of the fixture module or of its bench module.
package lib

func Dead() {} // want `lib\.Dead has no reference`

// TestOnly is called from lib_test.go alone, which does not count.
func TestOnly() int { return 1 } // want `lib\.TestOnly has no reference`

// Recursive calls only itself.
func Recursive(n int) int { // want `lib\.Recursive has no reference`
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

var DeadVar = 1 // want `lib\.DeadVar has no reference`

const DeadConst = 2 // want `lib\.DeadConst has no reference`

// DeadType's own methods name it only as their receiver.
type DeadType struct{} // want `lib\.DeadType has no reference`

func (DeadType) Method() {} // want `lib\.DeadType\.Method has no reference`

// Thing is used, and so are all its methods but one.
type Thing struct{ n int }

func NewThing() *Thing { return &Thing{} }

func (t *Thing) Used() int { return t.n }

func (t *Thing) Unused() int { return t.n } // want `lib\.Thing\.Unused has no reference`

// Write makes *Thing an io.Writer, an interface the program imports: it is
// called through fmt.Fprint, never by name.
func (t *Thing) Write(p []byte) (int, error) {
	t.n += len(p)
	return len(p), nil
}

// Sizer is an interface the program declares; Size implements it.
type Sizer interface{ Size() int }

func (t *Thing) Size() int { return t.n }

// Unit is a type of this module in an interface method's signature.
type Unit int

// Measure implements cmd/app's measurer, an interface declared outside
// this package whose signature names Unit.
func (t *Thing) Measure() Unit { return Unit(t.n) }

// Total is called with a *Thing as a Sizer.
func Total(ss ...Sizer) int {
	sum := 0
	for _, s := range ss {
		sum += s.Size()
	}
	return sum
}

// UsedByOther is named only by the fixture's cmd/app, which a run over
// this package alone does not load.
func UsedByOther() {}

// UsedByBench is named only by the fixture's second module.
func UsedByBench() {}
