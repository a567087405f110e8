package par

import (
	"runtime"
	"testing"
)

func TestBudget(t *testing.T) {
	if got := Budget(3); got != 3 {
		t.Errorf("Budget(3) = %d", got)
	}
	if got := Budget(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Budget(0) = %d, want GOMAXPROCS", got)
	}
}
