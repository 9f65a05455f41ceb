package fixture_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestRoot(t *testing.T) { lib.FromTest() }
