package main

import (
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"somrm"
)

const validSpec = `{
  "states": 2,
  "transitions": [{"from":0,"to":1,"rate":2.0},{"from":1,"to":0,"rate":3.0}],
  "rates": [1.5, -0.5],
  "variances": [0.2, 1.0],
  "initial": [1, 0]
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunHappyPath(t *testing.T) {
	path := writeSpec(t, validSpec)
	var sb strings.Builder
	err := run([]string{"-model", path, "-t", "1", "-order", "3", "-per-state", "-bounds", "0,1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Moments of the accumulated reward", "Per-initial-state moments", "CDF bounds", "solver: q=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunMissingModel(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing -model accepted")
	}
}

func TestRunUnreadableFile(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "/nonexistent/x.json"}, &sb); err == nil {
		t.Error("unreadable file accepted")
	}
}

func TestRunBadJSON(t *testing.T) {
	path := writeSpec(t, "{nope")
	var sb strings.Builder
	if err := run([]string{"-model", path}, &sb); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestRunBadModels(t *testing.T) {
	cases := map[string]string{
		"no states":       `{"states":0}`,
		"self transition": `{"states":1,"transitions":[{"from":0,"to":0,"rate":1}],"rates":[1],"variances":[0],"initial":[1]}`,
		"bad rate":        `{"states":2,"transitions":[{"from":0,"to":1,"rate":-2}],"rates":[1,1],"variances":[0,0],"initial":[1,0]}`,
		"bad initial":     `{"states":2,"transitions":[{"from":0,"to":1,"rate":1},{"from":1,"to":0,"rate":1}],"rates":[1,1],"variances":[0,0],"initial":[0.4,0.4]}`,
		"out of range":    `{"states":2,"transitions":[{"from":0,"to":5,"rate":1}],"rates":[1,1],"variances":[0,0],"initial":[1,0]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeSpec(t, body)
			var sb strings.Builder
			if err := run([]string{"-model", path}, &sb); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestRunWithImpulses(t *testing.T) {
	spec := `{
	  "states": 2,
	  "transitions": [{"from":0,"to":1,"rate":2.0},{"from":1,"to":0,"rate":3.0}],
	  "rates": [1, 0],
	  "variances": [0.1, 0.1],
	  "initial": [1, 0],
	  "impulses": [{"from":0,"to":1,"reward":0.5}]
	}`
	path := writeSpec(t, spec)
	var sb strings.Builder
	if err := run([]string{"-model", path, "-t", "1", "-order", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimesSeries(t *testing.T) {
	path := writeSpec(t, validSpec)
	var sb strings.Builder
	if err := run([]string{"-model", path, "-times", "0.5,1,2", "-order", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "t,m0,m1,m2\n") {
		t.Errorf("series header missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Errorf("want 4 CSV lines:\n%s", out)
	}
	if err := run([]string{"-model", path, "-times", "abc"}, &sb); err == nil {
		t.Error("bad time token accepted")
	}
}

func TestRunBadBoundsPoint(t *testing.T) {
	path := writeSpec(t, validSpec)
	var sb strings.Builder
	if err := run([]string{"-model", path, "-bounds", "abc"}, &sb); err == nil {
		t.Error("unparseable bounds point accepted")
	}
}

// TestHelperProcess re-executes the test binary as the somrm CLI so the
// exit-path tests below can observe the real process exit code and
// stderr. It is not a test; the parent drives it via SOMRM_HELPER.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("SOMRM_HELPER") != "1" {
		t.Skip("helper process for exit-code tests")
	}
	args := []string{"somrm"}
	if packed := os.Getenv("SOMRM_ARGS"); packed != "" {
		args = append(args, strings.Split(packed, "\x1f")...)
	}
	os.Args = args
	main()
	os.Exit(0)
}

// runBinary re-executes this test binary as `somrm args...` and returns
// the exit code and stderr.
func runBinary(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperProcess$")
	cmd.Env = append(os.Environ(),
		"SOMRM_HELPER=1",
		"SOMRM_ARGS="+strings.Join(args, "\x1f"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("re-exec failed: %v", err)
	return -1, ""
}

// TestExitCodes asserts the contract the shell sees: every error path
// exits non-zero with a "somrm:" diagnostic on stderr, and the happy path
// exits zero.
func TestExitCodes(t *testing.T) {
	valid := writeSpec(t, validSpec)
	malformed := writeSpec(t, `{"states": 2, "transitions": [`)
	cases := []struct {
		name      string
		args      []string
		wantInErr string
	}{
		{"malformed spec file", []string{"-model", malformed}, "invalid model specification"},
		{"missing spec file", []string{"-model", filepath.Join(t.TempDir(), "gone.json")}, "no such file"},
		{"negative t", []string{"-model", valid, "-t", "-2"}, "invalid argument"},
		{"unknown subcommand", []string{"solve", "-model", valid}, "unknown subcommand"},
		{"unknown flag", []string{"-model", valid, "-frobnicate"}, "flag provided but not defined"},
		{"missing -model", nil, "missing -model"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stderr := runBinary(t, c.args...)
			if code == 0 {
				t.Fatalf("exit code 0, want non-zero; stderr:\n%s", stderr)
			}
			if !strings.Contains(stderr, c.wantInErr) {
				t.Errorf("stderr missing %q:\n%s", c.wantInErr, stderr)
			}
			// Every failure must carry the program-name prefix except
			// flag-package usage errors, which print their own text.
			if c.wantInErr != "flag provided but not defined" && !strings.Contains(stderr, "somrm:") {
				t.Errorf("stderr missing somrm: prefix:\n%s", stderr)
			}
		})
	}
	if code, stderr := runBinary(t, "-model", valid, "-t", "1", "-order", "2"); code != 0 {
		t.Errorf("happy path exit code %d; stderr:\n%s", code, stderr)
	}
}

// TestRunAgainstServer drives the -server path end to end against an
// in-process solver service: the -times grid must produce CSV identical to
// the local shared-sweep path, and single solves must match too.
func TestRunAgainstServer(t *testing.T) {
	svc := somrm.NewServer(somrm.ServerOptions{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	path := writeSpec(t, validSpec)

	var local, remote strings.Builder
	if err := run([]string{"-model", path, "-times", "0.5,1,2", "-order", "3"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", path, "-times", "0.5,1,2", "-order", "3", "-server", ts.URL}, &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("remote series differs from local:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}

	var single strings.Builder
	if err := run([]string{"-model", path, "-t", "1", "-order", "2", "-bounds", "0,1", "-server", ts.URL}, &single); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Moments of the accumulated reward", "CDF bounds", "solver: q=3"} {
		if !strings.Contains(single.String(), want) {
			t.Errorf("remote solve output missing %q:\n%s", want, single.String())
		}
	}

	var sb strings.Builder
	if err := run([]string{"-model", path, "-t", "1", "-per-state", "-server", ts.URL}, &sb); err == nil {
		t.Error("-per-state with -server accepted")
	}
	if err := run([]string{"-model", path, "-t", "1", "-server", "http://127.0.0.1:1"}, &sb); err == nil {
		t.Error("unreachable server accepted")
	}
}

// TestRunAgainstCluster drives a comma-separated -server list end to end
// against three in-process cluster replicas: output must match the local
// path exactly, and must stay identical after one replica dies (the
// request fails over along the ring).
func TestRunAgainstCluster(t *testing.T) {
	var srvs []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewUnstartedServer(nil)
		srvs = append(srvs, ts)
		urls = append(urls, "http://"+ts.Listener.Addr().String())
	}
	for i, ts := range srvs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node, err := somrm.NewClusterNode(somrm.ClusterNodeOptions{
			Self:          urls[i],
			Peers:         peers,
			Server:        somrm.ServerOptions{Workers: 2},
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts.Config.Handler = node.Handler()
		ts.Start()
		defer node.Shutdown(context.Background())
		defer ts.Close()
	}

	path := writeSpec(t, validSpec)
	list := strings.Join(urls, ",")

	var local, remote strings.Builder
	if err := run([]string{"-model", path, "-times", "0.5,1,2", "-order", "3"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", path, "-times", "0.5,1,2", "-order", "3", "-server", list}, &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("cluster series differs from local:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}

	var before strings.Builder
	if err := run([]string{"-model", path, "-t", "1", "-order", "2", "-server", list}, &before); err != nil {
		t.Fatal(err)
	}

	// Kill one replica; the same command must produce byte-identical
	// moments via a ring successor.
	srvs[0].CloseClientConnections()
	srvs[0].Close()
	var after strings.Builder
	if err := run([]string{"-model", path, "-t", "1", "-order", "2", "-server", list}, &after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("failover output differs:\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
}
