package lint

import (
	"fmt"
	"io"
	"strings"
)

// WriteAnnotations renders findings as GitHub Actions workflow
// commands, so a CI lint job surfaces each one inline on the PR diff:
//
//	::error file=internal/x/x.go,line=12,col=3,title=repolint/wallclock::message
func WriteAnnotations(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		_, err := fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=repolint/%s::%s\n",
			escapeAnnotationProperty(f.Pos.Filename), f.Pos.Line, f.Pos.Column,
			escapeAnnotationProperty(f.Analyzer), escapeAnnotationData(f.Message))
		if err != nil {
			return err
		}
	}
	return nil
}

// escapeAnnotationData escapes the message part of a workflow command
// per the Actions runner's rules.
func escapeAnnotationData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeAnnotationProperty escapes a property value, which
// additionally cannot contain the property and command delimiters.
func escapeAnnotationProperty(s string) string {
	s = escapeAnnotationData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
