package nodefinder

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/devp2p"
	"repro/internal/eth"
	"repro/internal/metrics"
	"repro/internal/nodedb"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/snappy"
)

// TestOutcomeClassCoversTransportSentinels holds the failure taxonomy:
// every exported Err* sentinel a transport package declares must map
// to its own class, not the "error-other" catch-all, where a distinct
// failure mode would silently merge into the census noise bucket. The
// table is complete by construction: the test parses the transports'
// source and fails on any package-level Err* it does not name. The
// sentinels are wrapped the way the dial path wraps them (fmt.Errorf
// with %w) to prove classification survives wrapping.
func TestOutcomeClassCoversTransportSentinels(t *testing.T) {
	cases := map[string]struct {
		sentinel error
		want     Outcome
	}{
		"rlpx.ErrBadHeaderMAC":        {rlpx.ErrBadHeaderMAC, OutcomeRLPxBadMAC},
		"rlpx.ErrBadFrameMAC":         {rlpx.ErrBadFrameMAC, OutcomeRLPxBadMAC},
		"rlpx.ErrFrameTooBig":         {rlpx.ErrFrameTooBig, OutcomeFrameOversize},
		"rlpx.ErrBadHandshake":        {rlpx.ErrBadHandshake, OutcomeRLPxBadHandshake},
		"devp2p.ErrUnexpectedMessage": {devp2p.ErrUnexpectedMessage, OutcomeProtocolViolation},
		"devp2p.ErrNoCommonProtocol":  {devp2p.ErrNoCommonProtocol, OutcomeNoCommonCaps},
		"devp2p.ErrMsgTooBig":         {devp2p.ErrMsgTooBig, OutcomeMsgOversize},
		"eth.ErrNetworkMismatch":      {eth.ErrNetworkMismatch, OutcomeStatusMismatch},
		"eth.ErrGenesisMismatch":      {eth.ErrGenesisMismatch, OutcomeStatusMismatch},
		"eth.ErrProtocolMismatch":     {eth.ErrProtocolMismatch, OutcomeStatusMismatch},
		"eth.ErrNoStatus":             {eth.ErrNoStatus, OutcomeProtocolViolation},
		"eth.ErrMsgTooBig":            {eth.ErrMsgTooBig, OutcomeMsgOversize},
		"snappy.ErrCorrupt":           {snappy.ErrCorrupt, OutcomeSnappyCorrupt},
		"snappy.ErrTooLarge":          {snappy.ErrTooLarge, OutcomeSnappyCorrupt},
	}
	declared := map[string]bool{}
	for _, pkg := range []string{"rlpx", "devp2p", "eth", "snappy", "faultnet"} {
		for _, spec := range packageSpecs(t, filepath.Join("..", pkg), token.VAR) {
			for _, name := range spec.Names {
				if strings.HasPrefix(name.Name, "Err") {
					declared[pkg+"."+name.Name] = true
				}
			}
		}
	}
	for name := range declared {
		if _, ok := cases[name]; !ok {
			t.Errorf("%s is declared but not in this table: give it an OutcomeClass class and a row here", name)
		}
	}
	for name, tc := range cases {
		if !declared[name] {
			t.Errorf("row %s names no declared sentinel: the source scan is stale", name)
		}
		t.Run(tc.sentinel.Error(), func(t *testing.T) {
			res := &DialResult{Err: fmt.Errorf("handshake stage: %w", tc.sentinel)}
			got := res.Outcome()
			if got != tc.want {
				t.Errorf("Outcome(%v) = %v, want %v", tc.sentinel, got, tc.want)
			}
			if got == OutcomeErrorOther {
				t.Errorf("sentinel %v fell into the catch-all bucket", tc.sentinel)
			}
		})
	}
	// Every class has its own label: the one finder.conn_errors and
	// dialer.outcomes show it under.
	labels := map[string]Outcome{}
	for o := Outcome(1); o < numOutcomes; o++ {
		label := o.String()
		if label == "" || strings.HasPrefix(label, "Outcome(") {
			t.Errorf("outcome %d has no label", o)
		}
		if prev, dup := labels[label]; dup {
			t.Errorf("outcomes %d and %d share the label %q", prev, o, label)
		}
		labels[label] = o
	}
}

// TestConnErrorsCountFailuresOnly pins what finder.conn_errors counts:
// a dial that completed HELLO without an error adds nothing, a failed
// one adds exactly one to its class, and so does a peer that sent
// HELLO and then failed.
func TestConnErrorsCountFailuresOnly(t *testing.T) {
	reg := metrics.New()
	m := newFinderMetrics(reg, nodedb.New())
	errs := reg.CounterVec("finder.conn_errors")
	for _, step := range []struct {
		res  *DialResult
		want map[string]uint64
	}{
		{&DialResult{Kind: mlog.ConnDynamicDial, Hello: &devp2p.Hello{}}, map[string]uint64{}},
		{&DialResult{Kind: mlog.ConnDynamicDial, Err: rlpx.ErrBadHeaderMAC}, map[string]uint64{"rlpx-bad-mac": 1}},
		{&DialResult{Kind: mlog.ConnStaticDial, Hello: &devp2p.Hello{}, Err: snappy.ErrCorrupt}, map[string]uint64{"rlpx-bad-mac": 1, "snappy-corrupt": 1}},
	} {
		m.observe(step.res)
		if got := errs.Values(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after Hello=%v Err=%v: finder.conn_errors %v, want %v", step.res.Hello != nil, step.res.Err, got, step.want)
		}
	}
}

// TestConnTypeSwitchesAreExhaustive holds the other half of the
// taxonomy: a switch over an entry's ConnType in analysis must name
// every mlog.ConnType constant (or carry a default), so a new
// connection type cannot be dropped silently from a figure.
func TestConnTypeSwitchesAreExhaustive(t *testing.T) {
	var consts []string
	for _, spec := range packageSpecs(t, "mlog", token.CONST) {
		if id, ok := spec.Type.(*ast.Ident); ok && id.Name == "ConnType" {
			consts = append(consts, spec.Names[0].Name)
		}
	}
	switches := 0
	for _, file := range sourceFiles(t, filepath.Join("..", "analysis")) {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if tag, ok := sw.Tag.(*ast.SelectorExpr); !ok || tag.Sel.Name != "ConnType" {
				return true
			}
			switches++
			covered := map[string]bool{}
			for _, cc := range sw.Body.List {
				if cc.(*ast.CaseClause).List == nil {
					return true // a default covers the rest
				}
				for _, expr := range cc.(*ast.CaseClause).List {
					if sel, ok := expr.(*ast.SelectorExpr); ok {
						covered[sel.Sel.Name] = true
					}
				}
			}
			for _, c := range consts {
				if !covered[c] {
					t.Errorf("analysis: a switch over ConnType misses mlog.%s (add the case or a default)", c)
				}
			}
			return true
		})
	}
	if len(consts) == 0 || switches == 0 {
		t.Fatalf("%d ConnType constants, %d switches over one: the source scan is stale", len(consts), switches)
	}
}

// packageSpecs returns the package-level var or const specs in the
// non-test Go files of dir.
func packageSpecs(t *testing.T, dir string, tok token.Token) (specs []*ast.ValueSpec) {
	for _, file := range sourceFiles(t, dir) {
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == tok {
				for _, spec := range gd.Specs {
					specs = append(specs, spec.(*ast.ValueSpec))
				}
			}
		}
	}
	return specs
}

// sourceFiles parses the non-test Go files of one package directory.
func sourceFiles(t *testing.T, dir string) (files []*ast.File) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, p := range paths {
		if !strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	return files
}

// TestOutcomeClassNonErrorStates pins the classifier's non-error
// outcomes so taxonomy extensions cannot reshuffle them.
func TestOutcomeClassNonErrorStates(t *testing.T) {
	tooMany := devp2p.DiscTooManyPeers
	requested := devp2p.DiscRequested
	cases := []struct {
		name string
		res  *DialResult
		want Outcome
	}{
		{"too-many-peers", &DialResult{Disconnect: &tooMany}, OutcomeTooManyPeers},
		{"disconnected", &DialResult{Disconnect: &requested}, OutcomeDisconnected},
		{"eth-handshake", &DialResult{Hello: &devp2p.Hello{}, Status: &eth.Status{}}, OutcomeEthHandshake},
		{"hello-no-eth", &DialResult{Hello: &devp2p.Hello{}}, OutcomeHelloNoEth},
		{"no-handshake", &DialResult{}, OutcomeNoHandshake},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.res.Outcome(); got != tc.want {
				t.Errorf("Outcome = %v, want %v", got, tc.want)
			}
			// The row's name is the label the counters show.
			if got := OutcomeClass(tc.res); got != tc.name {
				t.Errorf("OutcomeClass = %q, want %q", got, tc.name)
			}
		})
	}
}

// claimsErr is an error whose Is method claims one sentinel.
type claimsErr struct{ target error }

func (e claimsErr) Error() string        { return "claims " + e.target.Error() }
func (e claimsErr) Is(target error) bool { return target == e.target }

// TestSentinelOutcomeIsErrorsIs holds the classifier's one walk of an
// error tree to what an errors.Is test per sentinel, in Outcome
// order, decides: through %w chains, multi-%w and errors.Join trees,
// and Is methods, the earliest class wrapped anywhere wins.
func TestSentinelOutcomeIsErrorsIs(t *testing.T) {
	errs := []error{
		errors.New("connect: connection refused"),
		fmt.Errorf("a: %w", fmt.Errorf("b: %w", snappy.ErrCorrupt)),
		errors.Join(snappy.ErrCorrupt, fmt.Errorf("c: %w", rlpx.ErrBadHeaderMAC)),
		fmt.Errorf("%w then %w", eth.ErrNoStatus, rlpx.ErrFrameTooBig),
		fmt.Errorf("d: %w", claimsErr{devp2p.ErrNoCommonProtocol}),
		errors.Join(claimsErr{rlpx.ErrBadHandshake}, errors.Join(eth.ErrGenesisMismatch)),
		claimsErr{errors.New("not a sentinel")},
	}
	for _, err := range errs {
		want := numOutcomes
		for _, s := range sentinelOutcomes {
			if errors.Is(err, s.err) {
				want = s.outcome
				break
			}
		}
		if got := sentinelOutcome(err, numOutcomes); got != want {
			t.Errorf("%v: one walk finds %v, errors.Is in order %v", err, got, want)
		}
	}
}
