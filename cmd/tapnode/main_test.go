package main

import (
	"strings"
	"testing"
)

// TestCheckSizes: the defaults and zeros pass, and each negative size is
// refused by its flag's name.
func TestCheckSizes(t *testing.T) {
	for _, c := range []struct {
		nbytes, chunk, fw, rp int
		flag                  string // "" when accepted
	}{
		{2048, 512, 3, 2, ""},
		{0, 0, 0, 0, ""},
		{-1, 512, 3, 2, "-bytes"},
		{2048, -1, 3, 2, "-chunk"},
		{2048, 512, -1, 2, "-fwhops"},
		{2048, 512, 3, -1, "-rphops"},
	} {
		err := checkSizes(c.nbytes, c.chunk, c.fw, c.rp)
		if c.flag == "" && err != nil {
			t.Errorf("checkSizes(%d, %d, %d, %d) = %v, want nil", c.nbytes, c.chunk, c.fw, c.rp, err)
		}
		if c.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), c.flag+" ")) {
			t.Errorf("checkSizes(%d, %d, %d, %d) = %v, want %s refused", c.nbytes, c.chunk, c.fw, c.rp, err, c.flag)
		}
	}
}
