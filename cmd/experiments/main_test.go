package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"table1", "fig5c", "shapley", "ext-load", "ext-market"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-scale", "0.01", "-samples", "100", "-sc-iters", "5", "table2"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table 2.") {
		t.Errorf("missing table output:\n%s", out.String())
	}
}

func TestRunMarkdownAndCSV(t *testing.T) {
	for _, format := range []string{"markdown", "csv"} {
		var out, errOut strings.Builder
		args := []string{"-scale", "0.01", "-samples", "100", "-format", format, "table5"}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if format == "markdown" && !strings.Contains(out.String(), "| rank |") {
			t.Errorf("markdown output malformed:\n%s", out.String())
		}
		if format == "csv" && !strings.Contains(out.String(), "rank,type,name,degree") {
			t.Errorf("csv output malformed:\n%s", out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "0.01"}, &out, &errOut); err == nil {
		t.Error("no experiments accepted")
	}
	if err := run([]string{"-scale", "0.01", "nonsense"}, &out, &errOut); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-scale", "0.01", "-format", "pdf", "table1"}, &out, &errOut); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-scale", "-3", "table1"}, &out, &errOut); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestRunOutdirWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	args := []string{"-scale", "0.01", "-samples", "50", "-outdir", dir, "table5"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table5.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "rank,type,name,degree") {
		t.Errorf("csv content wrong: %q", string(data)[:40])
	}
}
