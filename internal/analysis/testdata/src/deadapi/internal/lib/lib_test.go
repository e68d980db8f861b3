package lib

import (
	"testing"

	"fixtures/deadapi/internal/fake"
)

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || fake.Answer() != 42 {
		t.Fatal("unreachable in the fixture")
	}
}
