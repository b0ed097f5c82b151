#!/usr/bin/env sh
# Non-test Go lines per top-level package and in total: the simplicity
# yardstick of ROADMAP.md. Every line of every .go file counts, except
# _test.go files and anything under testdata/, _perfbench/ or .bench_build/.
# Top-level packages are the module root and each directory directly under
# internal/, cmd/ and examples/ (subpackages fold into their parent).
#
# Usage: scripts/loc.sh    (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
    ! -path '*/testdata/*' ! -path './_perfbench/*' ! -path './.bench_build/*' ! -path './.git/*' \
    -exec wc -l {} + |
    awk '
        $2 == "total" { next }
        {
            n = split($2, part, "/")
            if (n <= 2) key = "(root)"
            else if (n == 3) key = part[2]
            else key = part[2] "/" part[3]
            lines[key] += $1
            total += $1
        }
        END {
            for (k in lines) printf "%7d  %s\n", lines[k], k | "LC_ALL=C sort -k2"
            close("LC_ALL=C sort -k2")
            printf "%7d  total\n", total
        }
    '
