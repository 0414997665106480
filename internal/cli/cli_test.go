package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"testing"
)

func TestStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		status int
		stderr string
	}{
		{"success", nil, 0, ""},
		{"help", flag.ErrHelp, 0, ""},
		{"failure", errors.New("boom"), 1, "error: boom\n"},
		{"reported", &ExitError{Status: 2}, 2, ""},
		{"with status", &ExitError{Status: 2, Err: errors.New("shape")}, 2, "error: shape\n"},
	} {
		var stderr bytes.Buffer
		if got := Status(tc.err, &stderr); got != tc.status || stderr.String() != tc.stderr {
			t.Errorf("%s: status %d, stderr %q; want %d, %q", tc.name, got, stderr.String(), tc.status, tc.stderr)
		}
	}
}

func TestParse(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "")
		return fs
	}
	if err := Parse(newFS(), []string{"-n", "3"}); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
	if err := Parse(newFS(), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	var ee *ExitError
	if err := Parse(newFS(), []string{"-bogus"}); !errors.As(err, &ee) || ee.Status != 2 || ee.Err != nil {
		t.Fatalf("unknown flag: %v, want a silent status-2 ExitError", err)
	}
}
