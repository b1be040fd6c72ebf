// Command cosmic-prof captures, merges, and reports pprof-format profiles
// across a CoSMIC cluster. It scrapes every node's debug HTTP listener —
// /debug/cosmic/cycles for simulated-accelerator cycle attribution or Go's
// /debug/pprof/profile for wall-clock CPU — labels each node's samples
// with a "node" tag, merges them into one profile, and either writes the
// standard .pb.gz file (for `go tool pprof`) or prints the built-in top
// report.
//
// Usage:
//
//	cosmic-prof -nodes 127.0.0.1:9081,127.0.0.1:9082 -o cycles.pb.gz
//	cosmic-prof -cluster 127.0.0.1:9080 -top              # discover via /cluster
//	cosmic-prof -cluster 127.0.0.1:9080 -kind cpu -seconds 5 -o cpu.pb.gz
//	cosmic-prof -top cycles.pb.gz                         # report a local file
//	cosmic-prof -o merged.pb.gz node1.pb.gz node2.pb.gz   # merge local files
//
// -cluster asks the Director's /cluster roster for every node's http_addr
// (each node, the Director included, advertises the address its -http
// listener bound), so one flag profiles the whole cluster. Positional arguments are local
// .pb.gz files to include in the merge; they keep the node labels they
// already carry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated node debug HTTP addresses to scrape")
	cluster := flag.String("cluster", "", "Director HTTP address; discover node addresses from its /cluster roster")
	kind := flag.String("kind", "cycles", "profile kind: cycles (/debug/cosmic/cycles) or cpu (/debug/pprof/profile)")
	seconds := flag.Int("seconds", 5, "CPU profile duration per node in seconds (-kind cpu)")
	out := flag.String("o", "", "write the merged profile here (.pb.gz, `go tool pprof`-compatible)")
	top := flag.Bool("top", false, "print the built-in top report (default when -o is not given)")
	rows := flag.Int("rows", 20, "rows in the -top report")
	sample := flag.String("sample", "", "sample type for -top (default: the profile's own default)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-node scrape timeout (-kind cpu adds -seconds on top)")
	flag.Parse()

	var inputs []profile.Input
	for _, path := range flag.Args() {
		raw, err := profile.ReadFile(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		// Local files keep their own node labels — they may already be
		// merged cluster profiles.
		inputs = append(inputs, profile.Input{Raw: raw})
	}

	targets := splitList(*nodes)
	if *cluster != "" {
		discovered, err := discover(*cluster, *timeout)
		if err != nil {
			fatal(err)
		}
		if len(discovered) == 0 {
			fatal(fmt.Errorf("cluster %s: no nodes in the roster advertise an http_addr (start workers with cosmic-node -http)", *cluster))
		}
		targets = append(targets, discovered...)
	}

	path, scrapeTimeout := "", *timeout
	switch *kind {
	case "cycles":
		path = obs.CycleProfilePath
	case "cpu":
		path = fmt.Sprintf("/debug/pprof/profile?seconds=%d", *seconds)
		scrapeTimeout += time.Duration(*seconds) * time.Second
	default:
		fatal(fmt.Errorf("unknown -kind %q (want cycles or cpu)", *kind))
	}
	for _, addr := range targets {
		raw, err := scrape(addr, path, scrapeTimeout)
		if err != nil {
			fatal(err)
		}
		inputs = append(inputs, profile.Input{Raw: raw, NodeLabel: addr})
		fmt.Fprintf(os.Stderr, "cosmic-prof: scraped %s from %s (%d samples)\n", *kind, addr, len(raw.Sample))
	}
	if len(inputs) == 0 {
		fatal(fmt.Errorf("nothing to profile: give -nodes, -cluster, or local .pb.gz files"))
	}

	merged, err := profile.Merge(inputs)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := merged.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cosmic-prof: wrote %s (inspect with `go tool pprof -top %s`)\n", *out, *out)
	}
	if *top || *out == "" {
		idx := sampleIndex(merged, *sample)
		if idx < 0 {
			fatal(fmt.Errorf("profile has no sample type %q", *sample))
		}
		if err := profile.Top(os.Stdout, merged, idx, *rows); err != nil {
			fatal(err)
		}
	}
}

// discover reads the Director's /cluster roster and returns every
// advertised worker debug-HTTP address, de-duplicated, roster order.
func discover(cluster string, timeout time.Duration) ([]string, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(httpURL(cluster, "/cluster"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster %s: /cluster returned %s", cluster, resp.Status)
	}
	var doc struct {
		Nodes []struct {
			HTTPAddr string `json:"http_addr"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("cluster %s: decoding /cluster roster: %w", cluster, err)
	}
	seen := map[string]bool{}
	var addrs []string
	for _, n := range doc.Nodes {
		if n.HTTPAddr == "" || seen[n.HTTPAddr] {
			continue
		}
		seen[n.HTTPAddr] = true
		addrs = append(addrs, n.HTTPAddr)
	}
	return addrs, nil
}

// scrape fetches and decodes one profile from a node's debug listener.
func scrape(addr, path string, timeout time.Duration) (*profile.Raw, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(httpURL(addr, path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading profile: %w", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s: %s", addr, path, resp.Status, strings.TrimSpace(string(body)))
	}
	raw, err := profile.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("%s: decoding profile: %w", addr, err)
	}
	return raw, nil
}

// sampleIndex resolves -sample to a value column: an explicit name wins,
// then the profile's default_sample_type, then the last sample type (the
// pprof convention — e.g. "cpu" in Go's sample/cpu pairs).
func sampleIndex(r *profile.Raw, name string) int {
	if name != "" {
		return profile.SampleTypeIndex(r, name)
	}
	if def := defaultTypeName(r); def != "" {
		if i := profile.SampleTypeIndex(r, def); i >= 0 {
			return i
		}
	}
	return len(r.SampleType) - 1
}

func defaultTypeName(r *profile.Raw) string {
	i := r.DefaultSampleType
	if i <= 0 || int(i) >= len(r.StringTable) {
		return ""
	}
	return r.StringTable[i]
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func httpURL(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosmic-prof:", err)
	os.Exit(1)
}
