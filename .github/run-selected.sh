#!/usr/bin/env bash
# Usage: .github/run-selected.sh PATTERN PACKAGE [go test flags...]
#
# Runs `go test [flags...] -run PATTERN PACKAGE`. A -run filter that
# matches no test passes silently, so the script first lists what the
# filter selects and fails if that is nothing (e.g. after the tests move
# to another package).
set -eu
pattern=$1
pkg=$2
shift 2
listed=$(go test -list "$pattern" "$pkg")
if ! grep -q '^Test' <<<"$listed"; then
  echo "-run '$pattern' selects no tests in $pkg"
  exit 1
fi
exec go test "$@" -run "$pattern" "$pkg"
