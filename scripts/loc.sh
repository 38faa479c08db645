#!/bin/sh
# loc.sh — non-test Go line counts: the root module as a whole, each of
# its top-level packages (the root package, and cmd/X, examples/X,
# internal/X with their subpackages folded in), and the benchmark module.
#
# benchmark/ is a module of its own and is counted apart from the root
# module. Lines are physical lines, as wc -l counts them, comments and
# blank lines included; *_test.go files are left out.
#
# Usage: sh scripts/loc.sh   (or: make loc)
set -eu
cd "$(dirname "$0")/.."

# gofiles: the non-test Go files under the working directory, skipping
# hidden directories and a nested benchmark/ module.
gofiles() {
    find . -path ./benchmark -prune -o -path './.*' -prune -o \
        -name '*.go' ! -name '*_test.go' -type f -print
}

# tally LABEL: the lines of the files named on stdin, in total and per
# top-level package.
tally() {
    awk -v label="$1" '
    {
        path = $0
        sub(/^\.\//, "", path)
        n = split(path, part, "/")
        pkg = n == 1 ? "." : (n == 2 ? part[1] : part[1] "/" part[2])
        lines = 0
        while ((getline line < $0) > 0)
            lines++
        close($0)
        by[pkg] += lines
        total += lines
    }
    END {
        printf "0 %7d  %s\n", total, label
        for (pkg in by)
            printf "1%s %7d    %s\n", pkg, by[pkg], pkg
    }' | LC_ALL=C sort | cut -d' ' -f2-
}

echo "non-test Go lines"
gofiles | tally "root module (benchmark/ excluded)"
(cd benchmark && gofiles | tally "benchmark/ module")
