package geo

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	for _, c := range Countries {
		for _, host := range []int64{0, 1, 12345, 1 << 40} {
			ip := IPFor(c, host)
			if got := CountryOf(ip); got != c {
				t.Errorf("CountryOf(IPFor(%q, %d)) = %q via %s", c, host, got, ip)
			}
		}
	}
}

func TestUnknowns(t *testing.T) {
	for _, ip := range []string{"", "nonsense", "300.1.2.3", "9.9.9.9", "99.0.0.1"} {
		if got := CountryOf(ip); got != Unknown {
			t.Errorf("CountryOf(%q) = %q, want unknown", ip, got)
		}
	}
	if ip := IPFor("zz", 5); CountryOf(ip) != Unknown {
		t.Errorf("IPFor(unknown country) = %s resolved", ip)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ci uint8, host int64) bool {
		c := Countries[int(ci)%len(Countries)]
		return CountryOf(IPFor(c, host)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countryOfAtoi is CountryOf as it was written before it had to read
// bytes in place: strings.IndexByte, strconv.Atoi, a table lookup. It is
// the reference the hand-rolled octet parse is held to.
func countryOfAtoi(ip string) string {
	dot := strings.IndexByte(ip, '.')
	if dot < 0 {
		return Unknown
	}
	octet, err := strconv.Atoi(ip[:dot])
	if err != nil {
		return Unknown
	}
	i := octet - firstOctetBase
	if i < 0 || i >= len(Countries) {
		return Unknown
	}
	return Countries[i]
}

// FuzzCountryOf: over arbitrary bytes, CountryOf and the index form — of
// the bytes and of the string alike, the form every counter and record
// carries — mapped back to a code all answer what the Atoi-based reference
// answers. The seeds are the inputs
// where a digit loop and Atoi could part ways: signs, leading zeros,
// numbers past int64, underscores, a missing or leading dot.
func FuzzCountryOf(f *testing.F) {
	for _, s := range []string{
		"", ".", "10", "10.", "10.1.1.1", "17.250.1.9", "18.1.1.1", "9.1.1.1",
		"+10.1.1.1", "-10.1.1.1", "-0.1.1.1", "+.1", "++10.1", "+-10.1",
		"010.1.1.1", "0000000000000000000000017.1", "0x0a.1.1.1", "1_0.1.1.1",
		"9999999999.1", "99999999999999999999999999.1", "18446744073709551626.1",
		"10 .1.1.1", " 10.1.1.1", "1०.1.1.1", "10\x00.1", ".10.1.1",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want := countryOfAtoi(string(b))
		if got := CountryOf(string(b)); got != want {
			t.Errorf("CountryOf(%q) = %q, the Atoi reference says %q", b, got, want)
		}
		i := CountryIndex(b)
		if i < 0 || i > len(Countries) {
			t.Fatalf("CountryIndex(%q) = %d, outside 0..%d", b, i, len(Countries))
		}
		if s := CountryIndex(string(b)); s != i {
			t.Errorf("CountryIndex of %q is %d as a string, %d as bytes", b, s, i)
		}
		if got := CountryOfIndex(i); got != want {
			t.Errorf("CountryOfIndex(CountryIndex(%q)) = %q, the Atoi reference says %q", b, got, want)
		}
	})
}
