package sim

import "testing"

// TestParseTimeRoundTrip checks ParseTime against explicit values and
// then verifies it inverts String for values String renders losslessly
// (String keeps three decimals, so anything on a fs-free picosecond
// grid per unit survives).
func TestParseTimeRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Time
	}{
		{"0ps", 0},
		{"800ps", 800 * Picosecond},
		{"1ns", Nanosecond},
		{"250ns", 250 * Nanosecond},
		{"0.5ns", 500 * Picosecond},
		{"1.5us", 1500 * Nanosecond},
		{"1.5µs", 1500 * Nanosecond},
		{"2ms", 2 * Millisecond},
		{"  40us ", 40 * Microsecond},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTime(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		back, err := ParseTime(got.String())
		if err != nil {
			t.Errorf("ParseTime(%v.String()): %v", got, err)
			continue
		}
		if back != got {
			t.Errorf("round trip %q -> %v -> %q -> %v", c.in, got, got.String(), back)
		}
	}
}

func TestParseTimeErrors(t *testing.T) {
	for _, in := range []string{
		"",      // empty
		"5",     // no unit
		"5sec",  // unknown unit
		"abcns", // non-numeric value
		"1.2.3us",
		"-5ns",   // negative duration
		"NaNms",  // non-finite
		"ns",     // unit without value
		"1e14ms", // 1e23 ps overflows int64
	} {
		if got, err := ParseTime(in); err == nil {
			t.Errorf("ParseTime(%q) = %v, want error", in, got)
		}
	}
}
