// Package geo resolves client IP addresses to countries for the dashboard
// breakdowns of §3.2 ("further broken down by country and logged in/logged
// out status").
//
// The production system used a real geo-IP database; this stand-in keys off
// the first octet using the same table the synthetic workload generator
// allocates IPs from, so resolution is exact for generated traffic and
// "unknown" for anything else.
package geo

import "fmt"

// Unknown is returned for unresolvable addresses.
const Unknown = "unknown"

// Countries lists the country codes traffic is generated from, in prefix
// order: the first octet 10+i maps to Countries[i].
var Countries = []string{"us", "jp", "uk", "br", "in", "de", "id", "mx"}

// firstOctetBase is the first octet assigned to Countries[0].
const firstOctetBase = 10

// CountryOf resolves an IPv4 address to a country code.
func CountryOf(ip string) string { return CountryOfIndex(CountryIndex(ip)) }

// CountryOfIndex inverts CountryIndex: Countries[i], or Unknown for any i
// outside the table.
func CountryOfIndex(i int) string {
	if uint(i) < uint(len(Countries)) {
		return Countries[i]
	}
	return Unknown
}

// CountryIndex is CountryOf as an index into Countries, with len(Countries)
// standing for Unknown — a country a fixed-size record can carry — read as
// well from an address still lying in a message buffer as from a string:
// CountryOfIndex(CountryIndex(ip)) == CountryOf(string(ip)) for every ip.
// It reads the first octet the way strconv.Atoi would — an optional '+',
// then decimal digits, leading zeros allowed — up to the first '.'.
// Anything Atoi would reject, and any value outside the table (a '-' can
// only give one), is Unknown.
func CountryIndex[S string | []byte](ip S) int {
	unknown := len(Countries)
	i := 0
	if len(ip) > 0 && ip[0] == '+' {
		i = 1
	}
	octet, digits := 0, 0
	for ; i < len(ip) && ip[i] != '.'; i++ {
		d := ip[i] - '0'
		if d > 9 {
			return unknown
		}
		// Stop past the table's end: every longer number is Unknown too,
		// and octet never overflows.
		if octet = octet*10 + int(d); octet >= firstOctetBase+len(Countries) {
			return unknown
		}
		digits++
	}
	if i == len(ip) || digits == 0 || octet < firstOctetBase {
		return unknown
	}
	return octet - firstOctetBase
}

// IPFor synthesizes an IPv4 address inside the given country's prefix; host
// selects the low bits deterministically.
func IPFor(country string, host int64) string {
	idx := -1
	for i, c := range Countries {
		if c == country {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Sprintf("203.0.113.%d", host%250+1) // TEST-NET-3 for unknowns
	}
	h := uint64(host)
	return fmt.Sprintf("%d.%d.%d.%d", firstOctetBase+idx, (h>>16)%250+1, (h>>8)%250+1, h%250+1)
}
