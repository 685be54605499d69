package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// Flag validation must fail before any simulation starts, naming the
// offending flag.
func TestCheckFlags(t *testing.T) {
	// A path under a regular file can never become a directory, so this
	// fails even when the tests run as root (unlike permission bits).
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	for _, tc := range []struct {
		name    string
		opts    repro.Options
		figures []string
		says    []string // nil = accepted
	}{
		{name: "accepts", opts: repro.Options{Parallelism: 1}, figures: []string{"a1"}},
		{name: "accepts a fresh cache dir", opts: repro.Options{Parallelism: 8, Shards: 4, CacheDir: cacheDir}, figures: []string{"a3"}},
		{name: "bad worker count 0", opts: repro.Options{Parallelism: 0}, figures: []string{"a1"}, says: []string{"-j"}},
		{name: "bad worker count -8", opts: repro.Options{Parallelism: -8}, figures: []string{"a1"}, says: []string{"-j"}},
		{name: "unwritable cache dir", opts: repro.Options{Parallelism: 1, CacheDir: filepath.Join(file, "sub")}, figures: []string{"a1"}, says: []string{"-cache"}},
		{name: "all with shards", opts: repro.Options{Parallelism: 1, Shards: 2}, figures: repro.FigureIDs()},
		{name: "option errors name the flag", opts: repro.Options{Parallelism: 1, FaultSpec: "drop=nonsense"}, figures: []string{"2a"}, says: []string{"-faults"}},
		{name: "unknown figure", opts: repro.Options{Parallelism: 1}, figures: []string{"9z"}, says: []string{"-fig", "9z"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.opts, tc.figures)
			if tc.says == nil {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
			}
			for _, want := range tc.says {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
	if fi, err := os.Stat(cacheDir); err != nil || !fi.IsDir() {
		t.Errorf("cache dir not created: %v, %v", fi, err)
	}
}

// The option set is declared once, in Options; this walks its wire
// fields and fails if one has no recnsim flag that sets it, so a field
// the daemon accepts cannot silently be missing from the CLI (or a
// second declaration appear beside this one).
func TestEveryOptionHasAFlag(t *testing.T) {
	sample := map[reflect.Kind]string{
		reflect.Float64: "0.5", reflect.Int: "3", reflect.Bool: "true", reflect.String: "x", reflect.Slice: "RECN",
	}
	typ := reflect.TypeOf(repro.Options{})
	wire := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		wire++
		var opts repro.Options
		fs := flag.NewFlagSet("recnsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindOptions(fs, &opts)
		before := reflect.ValueOf(opts).Field(i).Interface()
		flagName, ok := flagOf[name]
		if !ok || fs.Lookup(flagName) == nil {
			t.Errorf("Options.%s (%q) has no recnsim flag: bind one in bindOptions and name it in flagOf", f.Name, name)
			continue
		}
		if err := fs.Parse([]string{"-" + flagName + "=" + sample[f.Type.Kind()]}); err != nil {
			t.Errorf("-%s: %v", flagName, err)
			continue
		}
		if after := reflect.ValueOf(opts).Field(i).Interface(); reflect.DeepEqual(before, after) {
			t.Errorf("-%s does not set Options.%s", flagName, f.Name)
		}
	}
	if wire != len(flagOf)-1 { // flagOf also names -fig, the figure list's flag
		t.Errorf("flagOf has %d option rows for %d wire fields", len(flagOf)-1, wire)
	}
}
