package faults_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
)

const site = faults.Site("test.site")

var errInjected = errors.New("injected")

func TestDisabledHooksAreNoOps(t *testing.T) {
	faults.Disable()
	if faults.Enabled() {
		t.Fatal("Enabled() true with no plan")
	}
	if err := faults.Check(site); err != nil {
		t.Fatalf("disabled Check returned %v", err)
	}
	data := []byte("payload")
	got, err := faults.Mutate(site, data)
	if err != nil || &got[0] != &data[0] {
		t.Fatalf("disabled Mutate did not pass the payload through unchanged: %v %v", got, err)
	}
}

func TestNthAndLimitTriggers(t *testing.T) {
	p := faults.NewPlan(
		faults.Rule{Site: site, Nth: 3, Err: errInjected},
	)
	faults.Enable(p)
	t.Cleanup(faults.Disable)
	for i := 1; i <= 5; i++ {
		err := faults.Check(site)
		if (i == 3) != (err != nil) {
			t.Errorf("hit %d: err = %v, want fire exactly on the 3rd", i, err)
		}
	}
	if p.Hits(site) != 5 || p.Fires(site) != 1 {
		t.Errorf("hits=%d fires=%d, want 5/1", p.Hits(site), p.Fires(site))
	}
}

// TestEveryWithLimit: an Every rule fires on each multiple of its
// period for as long as the plan is enabled; Disable is the only cap,
// and it is the one the chaos harness's recovery pass relies on.
func TestEveryWithLimit(t *testing.T) {
	p := faults.NewPlan(
		faults.Rule{Site: site, Every: 2, Err: errInjected},
	)
	faults.Enable(p)
	t.Cleanup(faults.Disable)
	var fired []int
	for i := 1; i <= 8; i++ {
		if i == 7 {
			faults.Disable()
		}
		if faults.Check(site) != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 2 || fired[1] != 4 || fired[2] != 6 {
		t.Errorf("fired on hits %v, want [2 4 6] (every 2nd, until disabled)", fired)
	}
	if p.Hits(site) != 6 || p.Fires(site) != 3 || p.TotalFires() != 3 {
		t.Errorf("hits=%d fires=%d total=%d, want 6/3/3", p.Hits(site), p.Fires(site), p.TotalFires())
	}
}

func TestCorruptMutatesPayload(t *testing.T) {
	p := faults.NewPlan(faults.Rule{Site: site, Nth: 1, Corrupt: true})
	faults.Enable(p)
	t.Cleanup(faults.Disable)
	data := []byte(`{"schema":1,"key":"k","metrics":{}}`)
	got, err := faults.Mutate(site, data)
	if err != nil {
		t.Fatalf("corrupt rule returned an error: %v", err)
	}
	if string(got) == string(data) {
		t.Error("corrupt rule left the payload intact")
	}
	// The next write is untouched.
	got, _ = faults.Mutate(site, data)
	if string(got) != string(data) {
		t.Error("one-shot corrupt rule kept firing")
	}
}

func TestPanicRuleIdentifiesItself(t *testing.T) {
	p := faults.NewPlan(faults.Rule{Site: site, Nth: 1, Panic: "poisoned cell"})
	faults.Enable(p)
	t.Cleanup(faults.Disable)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic rule did not panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "poisoned cell") || !strings.Contains(s, string(site)) {
			t.Errorf("panic value %v does not identify the fault", v)
		}
	}()
	faults.Check(site)
}
