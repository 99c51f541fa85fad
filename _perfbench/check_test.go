package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"haswellep/internal/experiments"
	"haswellep/internal/farm"
	"haswellep/internal/report"
)

// A table whose value differs from the run's first repetition, or that
// came with an error, counts as a failed op.
func TestTamperedTableValueFails(t *testing.T) {
	res := experiments.Table8()
	out := tableOut{name: "table8", text: res.Table.String(), cmps: res.Comparisons}
	var c tableCheck
	if ok, why := c.ok(out); !ok {
		t.Fatalf("first repetition refused: %s", why)
	}
	if ok, why := c.ok(out); !ok {
		t.Fatalf("identical repetition refused: %s", why)
	}
	tampered := out
	tampered.cmps = append([]report.Comparison(nil), out.cmps...)
	tampered.cmps[5].Measured += 1e-9
	if ok, _ := c.ok(tampered); ok {
		t.Fatal("a table with one tampered value passed the check")
	}
	errored := out
	errored.err = errors.New("Table IV cell fwd=node1 home=node0: no spare core")
	if ok, _ := c.ok(errored); ok {
		t.Fatal("a table op that returned an error passed the check")
	}
}

// A served what-if answer that differs from the answer another label of
// the same spec got counts as failed, and so does every hot slot that
// re-serves it; an untampered run fails nothing. RunPoint is replaced by a
// stand-in so the test needs no engine work.
func TestTamperedWhatIfAnswerFails(t *testing.T) {
	specs, rng := serveMix(7)
	var sets [2]coldSet
	for k := range sets {
		var err error
		if sets[k], err = coldSetFor(specs, 7, k); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := hotSetFor(sets[1], rng)
	if err != nil {
		t.Fatal(err)
	}
	// A second-pass label that the first hot request re-serves.
	tampered := sets[1].slots[hot.slots[0][0]].q.Label

	// serve runs both cold passes on fresh journals, then restarts on the
	// second pass's journal and runs one hot pass.
	serve := func(tamper string) (*run, string) {
		t.Helper()
		var out bytes.Buffer
		r := &run{seed: 7, budget: time.Minute, dir: t.TempDir(), out: &out, start: time.Now(),
			metrics: map[string]float64{}, digest: sha256.New()}
		ins := newInstrumentation(newTracer(), sets[1])
		ins.runPoint = func(_ *farm.Ctx, s experiments.WhatIfSpec, _ experiments.WhatIfOptions) (experiments.WhatIfAnswer, error) {
			ns := float64(s.SizeBytes) / 1024
			if s.Label == tamper {
				ns++
			}
			return experiments.WhatIfAnswer{Kind: s.Kind, Latency: &experiments.LatencyAnswer{Ns: ns}}, nil
		}
		var check answerCheck
		for k, set := range sets {
			journal := r.path(fmt.Sprintf("pass%d.journal", k))
			d, err := startHswd(journal, ins)
			if err != nil {
				t.Fatal(err)
			}
			p, st, err := coldPass(d, set, nil)
			if err != nil {
				t.Fatal(err)
			}
			answers, why := check.cold(set, p.replies)
			bookCold(r, answers, why, st)
			if k == 1 {
				expect, err := hotExpect(set, hot, answers)
				if err != nil {
					t.Fatal(err)
				}
				if d, _, err = restart(d, journal, ins); err != nil {
					t.Fatal(err)
				}
				hp, err := drive(d.addr, hot.reqs, expect, nil)
				if err != nil {
					t.Fatal(err)
				}
				bookHot(r, hot, hp)
			}
			if err := d.stop(); err != nil {
				t.Fatal(err)
			}
		}
		return r, out.String()
	}

	if r, out := serve(""); r.failed != 0 || r.ops == 0 {
		t.Fatalf("untampered run: %d of %d ops failed:\n%s", r.failed, r.ops, out)
	}
	r, out := serve(tampered)
	if strings.Count(out, "another label of the same spec got a different answer") != 1 {
		t.Fatalf("tampered cold answer not flagged exactly once:\n%s", out)
	}
	if r.failed <= 1 || !strings.Contains(out, "bytes differ from the cold answers") {
		t.Fatalf("no hot slot re-serving the tampered answer failed (%d failed):\n%s", r.failed, out)
	}
}
