package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"tap/internal/experiments"
)

var exts = []string{"ext-cover", "ext-anon", "ext-session", "ext-inflight", "ext-timing",
	"ext-reliability", "ext-selfheal"}

func runNames(runs []selected) []string {
	var out []string
	for _, r := range runs {
		out = append(out, r.name)
	}
	return out
}

// Every name -experiment lists selects something, and each experiment's
// own name selects exactly its row with the flags as given.
func TestNamesSelectRows(t *testing.T) {
	o := options{n: 1, trials: 2, seed: 3, sizes: []int{4}}
	for _, name := range strings.Split(names(), "|") {
		if len(selectRuns(name, o)) == 0 {
			t.Errorf("-experiment %s selects nothing", name)
		}
	}
	for _, e := range table {
		runs := selectRuns(strings.ToUpper(e.name), o)
		if len(runs) != 1 || runs[0].name != e.name || !reflect.DeepEqual(runs[0].opts, o) {
			t.Errorf("-experiment %s selects %v", strings.ToUpper(e.name), runNames(runs))
		}
	}
	if runs := selectRuns("", o); len(runs) != 0 {
		t.Errorf("an empty name selects %v", runNames(runs))
	}
}

// all is the paper's figures with every flag; ext is the seven flagless
// ext sweeps, in order, each with only -trials and -seed set.
func TestGroups(t *testing.T) {
	o := options{n: 500, tunnels: 40, length: 4, k: 2, trials: 2, seed: 9, windows: []int{1, 16}}
	all := selectRuns("ALL", o)
	if got, want := runNames(all), []string{"fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6"}; !slices.Equal(got, want) {
		t.Errorf("all = %v, want %v", got, want)
	}
	for _, r := range all {
		if !reflect.DeepEqual(r.opts, o) {
			t.Errorf("all runs %s with %+v, want %+v", r.name, r.opts, o)
		}
	}
	ext := selectRuns("Ext", o)
	if got := runNames(ext); !slices.Equal(got, exts) {
		t.Errorf("ext = %v, want %v", got, exts)
	}
	for _, r := range ext {
		if want := (options{trials: 2, seed: 9}); !reflect.DeepEqual(r.opts, want) {
			t.Errorf("ext runs %s with %+v, want %+v", r.name, r.opts, want)
		}
	}
}

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// tapsim builds the command once per test binary and runs it with args.
func tapsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tapsim-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "tapsim")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = errors.New(err.Error() + "\n" + string(out))
		}
	})
	if buildErr != nil {
		t.Fatalf("building tapsim: %v", buildErr)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(binPath, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "nope"}, `tapsim: unknown experiment "nope" (want ` + names() + ")\n"},
		{[]string{"-experiment", "ext-scale", "-sizes", "x"}, "tapsim: -sizes: bad size \"x\"\n"},
		{[]string{"-experiment", "ext-throughput", "-windows", "0"}, "tapsim: -windows: bad window \"0\"\n"},
		{[]string{"-experiment", "fig3", "-sizes", "x"}, "tapsim: -sizes: bad size \"x\"\n"},
	} {
		stdout, stderr, code := tapsim(t, c.args...)
		if code != 2 || stderr != c.want || stdout != "" {
			t.Errorf("tapsim %v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q",
				c.args, code, stderr, stdout, c.want)
		}
	}
	_, stderr, _ := tapsim(t, "-experiment", "nope")
	for _, e := range table {
		if !strings.Contains(stderr, e.name) {
			t.Errorf("unknown-experiment error does not list %s", e.name)
		}
	}
}

// tapsim prints the experiment's own CSV for the flags it is given.
func TestFig3CSV(t *testing.T) {
	stdout, stderr, code := tapsim(t, "-experiment", "fig3", "-n", "200", "-tunnels", "20", "-trials", "1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	tbl, err := experiments.Fig3(experiments.Fig3Params{N: 200, Tunnels: 20, Length: 5, K: 3, Trials: 1, Seed: 2004})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	tbl.RenderCSV(&want)
	want.WriteString("\n")
	if stdout != want.String() {
		t.Fatalf("stdout:\n%s\nwant:\n%s", stdout, want.String())
	}
}

// resultsRow is one row of results/README.md's table: a file and the
// tapsim command that prints it.
var resultsRow = regexp.MustCompile("^\\| `([^`]+)` \\| `tapsim ([^`]+)` \\|$")

// nightly are the rows too slow for every test run (fig5_long.txt takes
// about 15 s); the nightly workflow regenerates and diffs them instead.
var nightly = map[string]bool{"fig5_long.txt": true}

// Every file under results/ is the output of the command in its
// results/README.md row, byte for byte apart from the wall-clock
// "completed in" lines. The goldens pin small cases with one value on
// most axes; these run the published sweeps, so a wrong point decode or
// stream index moves a file.
func TestResultsMatchTheirCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every published table (about 20 s)")
	}
	const dir = "../../results"
	readme, err := os.ReadFile(filepath.Join(dir, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(readme), "\n") {
		if m := resultsRow.FindStringSubmatch(line); m != nil {
			rows[m[1]] = strings.Fields(m[2])
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := rows[filepath.Base(f)]; !ok {
			t.Errorf("results/%s has no row in results/README.md", filepath.Base(f))
		}
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("results/README.md row has no file: %v", err)
			}
			if nightly[name] {
				t.Skip("checked by the nightly workflow")
			}
			stdout, stderr, code := tapsim(t, rows[name]...)
			if code != 0 {
				t.Fatalf("tapsim %v: exit %d: %s", rows[name], code, stderr)
			}
			if got, want := withoutTimings(stdout), withoutTimings(string(want)); got != want {
				t.Errorf("tapsim %v differs from results/%s:\ngot:\n%s\nwant:\n%s", rows[name], name, got, want)
			}
		})
	}
}

// withoutTimings drops the "(name completed in …)" lines tapsim prints
// after each table.
func withoutTimings(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, " completed in ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
