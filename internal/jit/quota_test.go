package jit

import (
	"context"
	"errors"
	"testing"

	"vida/internal/values"
)

// TestBareLimitSinkErrorNotSwallowed pins a review finding: the row
// quota reserves budget before delivery, so a sink failure on the
// quota-crossing chunk must surface as an error — not be mistaken for
// successful completion because the budget already reads exhausted.
func TestBareLimitSinkErrorNotSwallowed(t *testing.T) {
	cat := testCatalog()
	plan := planFor(t, `for { e <- Employees } yield bag e.id limit 2`, cat)
	boom := errors.New("sink exploded")
	err := Executor{Opts: Options{Workers: 1}}.RunStream(context.Background(), plan, cat,
		func(chunk []values.Value) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
	}
}
