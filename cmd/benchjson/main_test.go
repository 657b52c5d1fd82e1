package main

import (
	"runtime/debug"
	"testing"
)

func TestCommitOf(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "e257c28a0494"}
	for _, c := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"clean", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "e257c28a0494"},
		{"dirty", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, rev}, "e257c28a0494-dirty"},
		{"no vcs", []debug.BuildSetting{{Key: "GOARCH", Value: "amd64"}}, "unknown"},
		{"modified without revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, "unknown"},
	} {
		if got := commitOf(c.settings); got != c.want {
			t.Errorf("%s: commitOf = %q, want %q", c.name, got, c.want)
		}
	}
}
