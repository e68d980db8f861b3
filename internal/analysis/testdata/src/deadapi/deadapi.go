// Package deadapi stands in for a module's root package: a facade at the
// root of the internal/ tree, whose users are the module's commands too.
package deadapi

import "fixtures/deadapi/internal/lib"

// Things is called by cmd/app.
func Things() *lib.Thing { return lib.NewThing() }

// Orphan is named by no non-test file.
func Orphan() {} // want `deadapi\.Orphan has no reference`
