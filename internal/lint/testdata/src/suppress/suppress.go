// Package suppress exercises the //lint:ignore machinery: a justified
// directive silences its finding, while directives missing a reason or
// naming an unknown analyzer are findings themselves and silence
// nothing.
package suppress

import "time"

// Good carries a written reason, so its clock read stays silent.
func Good() time.Time {
	//lint:ignore wallclock this package exercises the suppression machinery
	return time.Now()
}

// MissingReason shows a bare directive: the directive is reported and
// the clock read underneath is still flagged.
func MissingReason() time.Time {
	// wantnext "carries no reason"
	//lint:ignore wallclock
	return time.Now() // want "time.Now in clocked package suppress"
}

// UnknownAnalyzer references a checker that does not exist.
func UnknownAnalyzer() time.Time {
	// wantnext "unknown analyzer"
	//lint:ignore notreal this analyzer does not exist
	return time.Now() // want "time.Now in clocked package suppress"
}

// Nameless shows a directive with no analyzer at all.
func Nameless() time.Time {
	// wantnext "names no analyzer"
	//lint:ignore
	return time.Now() // want "time.Now in clocked package suppress"
}

// Stale carries a fully justified directive with nothing left to
// silence — the clock read it once excused is gone — so the directive
// itself is reported.
func Stale() time.Time {
	// wantnext "no longer suppresses any finding"
	//lint:ignore wallclock the clock read this excused was removed
	return time.Time{}
}

// StaleTaxonomy carries a justified errtaxonomy directive over a line
// errtaxonomy does not report: nothing is left to silence, so the
// directive itself is reported.
func StaleTaxonomy() error {
	// wantnext "no longer suppresses any finding"
	//lint:ignore errtaxonomy the sentinel this excused is now handled by the classifier
	return nil
}
