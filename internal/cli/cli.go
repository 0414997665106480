// Package cli is the shell every command's main runs in: main hands
// its run function the process's arguments and standard streams, and
// Main turns the error run returns into the exit status, so run
// itself never exits and a test can call it like any function.
//
// The statuses are the ones the flag package's ExitOnError gives: 0
// on success and on -h, 2 on a flag error (which the FlagSet has
// already printed with its usage), 1 on any other error. A run that
// needs another status returns an *ExitError.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// ExitError is an error that carries its exit status. A nil Err
// means the failure has already been reported and prints nothing.
type ExitError struct {
	Status int
	Err    error
}

func (e *ExitError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("exit status %d", e.Status)
	}
	return e.Err.Error()
}

// Main runs run on os.Args[1:], os.Stdout and os.Stderr, and exits
// with the status of its error.
func Main(run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(Status(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// Status reports err on stderr, unless it has been reported already,
// and returns its exit status.
func Status(err error, stderr io.Writer) int {
	var ee *ExitError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ee):
		if ee.Err != nil {
			fmt.Fprintln(stderr, "error:", ee.Err)
		}
		return ee.Status
	default:
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
}

// Parse parses args with fs, which must be ContinueOnError. A flag
// error comes back as a silent status-2 *ExitError: fs has printed it
// and its usage already.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &ExitError{Status: 2}
}
