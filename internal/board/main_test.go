package board

import (
	"testing"

	"tap/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
