#!/usr/bin/env bash
# Non-test Go lines per package (bench/e2e excluded), split into the lines
# the system runs and the reference semantics it is checked against, with
# each count's delta against a base revision (default HEAD^1).
#
#   bash .github/scripts/loc.sh [base-rev]
#
# System code is what the linker keeps when it builds the roots: cmd/cedr,
# every examples/ program, and a generated program that references every
# exported func, method and var of repro and internal/server, plus the
# exported methods of each type repro aliases. Every root is built with
# inlining off (-gcflags=all=-l: an inlined function leaves no symbol) and
# its kept symbols are read with go tool nm. A function's span, from its doc
# comment to its closing brace, is system when its symbol is kept (generic
# instantiations stripped, a closure counting toward its parent); every other
# line of a file is system when its package is linked into a system root.
# cmd/figures is not a root, so it is all reference.
#
# The markdown report goes to stdout, and is appended to $GITHUB_STEP_SUMMARY
# when that is set. The script fails if a package's system and reference
# lines do not add up to its total, if the roots program does not build, if
# a canary symbol is misclassified, or if repro or internal/server exports a
# generic function (the roots program cannot reference one uninstantiated).
set -euo pipefail
export LC_ALL=C

base=${1:-HEAD^1}
tmp=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/loc.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "loc.sh: $*" >&2
  exit 1
}

# go_files: the counted files of the tree in the current directory.
go_files() {
  find . -name '*.go' -not -name '*_test.go' -not -path './bench/e2e/*' | sort
}

# exported DIR QUALIFIER: one Go expression a line for each exported func,
# method and var declared in DIR, and "alias NAME PKG TYPE" for each type
# alias of PKG.TYPE. An exported generic func or method prints "generic".
exported() {
  cat $(ls "$1"/*.go | grep -v '_test\.go$') | awk -v q="$2" '
    /^(var|type) \($/ { block = $1; next }
    /^\)$/ { block = ""; next }
    /^func [A-Z][A-Za-z0-9_]*\[/ { n = $2; sub(/\[.*/, "", n); print "generic " n; next }
    /^func [A-Z][A-Za-z0-9_]*\(/ { sub(/^func /, ""); sub(/\(.*/, ""); print q "." $0 ","; next }
    /^func \(([A-Za-z0-9_]+ )?\*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/ {
      rt = $0; sub(/^func \(/, "", rt); sub(/\).*/, "", rt); g = sub(/\[.*/, "", rt); sub(/.* /, "", rt); sub(/^\*/, "", rt)
      m = $0; sub(/^func \([^)]*\) /, "", m); sub(/[[(].*/, "", m)
      if (g || $0 ~ /^func \([^)]*\) [A-Za-z0-9_]+\[/) { print "generic " rt "." m; next }
      print "(*" q "." rt ")." m ","; next
    }
    /^var [A-Z]/ || (block == "var" && /^\t[A-Z]/) {
      v = $0; sub(/^(var |\t)/, "", v); sub(/[ ,].*/, "", v); print "&" q "." v ","; next
    }
    /^type [A-Z][A-Za-z0-9_]* = [a-z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*$/ ||
    (block == "type" && /^\t[A-Z][A-Za-z0-9_]* += [a-z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*$/) {
      a = $0; sub(/^(type |\t)/, "", a); split(a, f, /[ =.]+/); print "alias " f[1] " " f[2] " " f[3]
    }'
}

# roots_program: the generated roots program for the tree in the current
# directory.
roots_program() {
  local decls
  decls=$(exported . cedr; exported internal/server server)
  if grep -q '^generic ' <<<"$decls"; then
    fail "exported generic function in repro or internal/server: $(grep '^generic ' <<<"$decls" | cut -d' ' -f2 | paste -sd' ')"
  fi
  printf 'package main\n\nimport (\n\tcedr "repro"\n\t"repro/internal/server"\n)\n\nvar keep = []any{\n'
  grep -v '^alias ' <<<"$decls"
  { grep '^alias ' <<<"$decls" || true; } | while read -r _ name pkg typ; do
    dir=$(cat $(ls ./*.go | grep -v '_test\.go$') | sed -nE "s|^[[:space:]]*\"repro/(.*/)?($pkg)\"$|\1\2|p" | head -1)
    [ -n "$dir" ] || continue # an alias of a type outside the module
    cat $(ls "$dir"/*.go | grep -v '_test\.go$') |
      sed -nE "s/^func \(([A-Za-z0-9_]+ )?\*?$typ\) ([A-Z][A-Za-z0-9_]*)\(.*/(*cedr.$name).\2,/p"
  done
  printf '}\n\nfunc main() { println(len(keep)) }\n'
}

# symbols BINARY PATH: the function keys the linker kept in BINARY, one
# "import/path.key" a line, with its main package renamed to PATH (or dropped
# when PATH is empty). A key is a func (F), a method (T.M or (*T).M), or, for
# a closure or wrapper, also its parent's key.
symbols() {
  go tool nm "$1" | sed -E 's/^ *[0-9a-f]* +[A-Za-z] //' |
    if [ -n "$2" ]; then sed "s|^main\\.|$2.|"; else cat; fi |
    grep -E '^repro[./]' | sed -E ':a
s/\[[^][]*\]//
ta' | awk '{
      i = match($0, /[^\/]*$/); tail = substr($0, i)
      d = index(tail, "."); pkg = substr($0, 1, i + d - 2)
      n = split(substr(tail, d + 1), part, ".")
      k = part[1]; sub(/-.*/, "", k); print pkg "." k
      if (n > 1) { m = part[2]; sub(/-.*/, "", m); print pkg "." k "." m }
    }' | sort -u
}

# classify TREE OUT: build the roots of TREE, then write OUT.counts
# ("dir total system reference" a package) and OUT.funcs (one line a
# function: class, symbol, file:line, lines, and the non-root binaries
# that keep it).
classify() {
  local tree=$1 out=$2 b=$tmp/bin
  mkdir -p "$b"
  (
    cd "$tree"
    roots_program >"$b/roots.go"
    printf '{"Replace":{"%s/internal/locroots/main.go":"%s"}}' "$PWD" "$b/roots.go" >"$b/overlay.json"
    go build -overlay "$b/overlay.json" -gcflags=all=-l -o "$b/roots" ./internal/locroots ||
      fail "the roots program does not build ($tree)"
    symbols "$b/roots" '' >"$b/system"
    for d in cmd/cedr examples/*/; do
      d=${d%/}
      go build -gcflags=all=-l -o "$b/root" "./$d"
      symbols "$b/root" "repro/$d" >>"$b/system"
    done
    go build -gcflags=all=-l -o "$b/figures" ./cmd/figures
    symbols "$b/figures" repro/cmd/figures >"$b/figures.syms"
    go build -gcflags=all=-l -o "$b/e2e" ./bench/e2e
    symbols "$b/e2e" '' >"$b/e2e.syms"
    go_files >"$b/files"
    xargs wc -l <"$b/files" | grep -v ' total$' |
      awk '{d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1} END {for (d in n) print d, n[d]}' | sort >"$b/totals"
    xargs awk -v B="$b" '
      function path(dir) { return dir == "." ? "repro" : "repro/" substr(dir, 3) }
      function load(f, set,   s) {
        while ((getline s < f) > 0) set[s] = 1
        close(f)
      }
      function kept(set) { return (pkg "." key) in set || (alt != "" && (pkg "." alt) in set) }
      function endfunc(   reach) {
        infunc = 0
        if (kept(sys)) { fsys[dir] += flen; cls = "system" } else { fref[dir] += flen; cls = "reference" }
        reach = kept(fig) ? "cmd/figures" : ""
        if (kept(e2e)) reach = reach (reach == "" ? "" : ", ") "bench/e2e"
        printf "%s\t%s.%s\t%s:%d\t%d\t%s\n", cls, short, key, substr(FILENAME, 3), start, flen, reach > (B "/funcs")
      }
      BEGIN {
        load(B "/system", sys); load(B "/figures.syms", fig); load(B "/e2e.syms", e2e)
        for (s in sys) { p = s; sub(/\.[^\/]*$/, "", p); linked[p] = 1 }
      }
      FNR == 1 {
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir); pkg = path(dir)
        short = pkg; sub(/.*\//, "", short); doc = 0; infunc = 0
      }
      infunc { flen++; if ($0 == "}") endfunc(); next }
      /^func / {
        r = $0; key = ""; alt = ""
        if (r ~ /^func \(/) {
          rt = r; sub(/^func \(/, "", rt); sub(/\).*/, "", rt); sub(/\[.*/, "", rt); sub(/.* /, "", rt)
          m = r; sub(/^func \([^)]*\) /, "", m); sub(/[[(].*/, "", m)
          if (rt ~ /^\*/) key = "(" rt ")." m
          else { key = rt "." m; alt = "(*" rt ")." m }
        } else { key = r; sub(/^func /, "", key); sub(/[[(].*/, "", key) }
        start = FNR - doc; flen = doc + 1; other[dir] -= doc; doc = 0
        if ($0 ~ /}$/) endfunc(); else infunc = 1
        next
      }
      { other[dir]++; if ($0 ~ /^\/\//) doc++; else doc = 0 }
      END {
        for (d in other) {
          p = path(d)
          if (p in linked) fsys[d] += other[d]; else fref[d] += other[d]
          print d, fsys[d] + 0, fref[d] + 0 > (B "/split")
        }
      }' <"$b/files"
    sort "$b/split" | join -a1 -a2 -e0 -o 0,1.2,2.2,2.3 "$b/totals" - >"$out.counts"
    sort -t"$(printf '\t')" -k3,3 "$b/funcs" >"$out.funcs"
  )
  rm -rf "$b"
  awk '$2 != $3 + $4 {print "loc.sh: " $1 ": system " $3 " + reference " $4 " != total " $2; bad = 1}
    END {exit bad}' "$out.counts" >&2 || fail "the split does not add up ($tree)"
}

# canaries OUT: fail unless known functions and packages are classified as
# they must be; a broken nm parse would report everything as one class.
canaries() {
  local class sym
  while read -r class sym; do
    awk -F'\t' -v s="$sym" -v c="$class" '$2 == s {n++; if ($1 != c) bad = 1} END {exit bad || n != 1}' "$1.funcs" ||
      fail "canary $sym is not $class"
  done <<'EOF'
system engine.(*ownedKeys).Process
system inc.(*Op).Process
reference algebra.(*PatternOp).Process
EOF
  awk '$1 == "./internal/history" || $1 == "./cmd/figures" {n++; if ($3 != 0) bad = 1} END {exit bad || n != 2}' "$1.counts" ||
    fail "canary: internal/history or cmd/figures has system lines"
}

classify . "$tmp/head"
canaries "$tmp/head"
mkdir -p "$tmp/parent"
if git archive "$base" 2>/dev/null | tar -x -C "$tmp/parent"; then
  classify "$tmp/parent" "$tmp/base"
else
  : >"$tmp/base.counts"
fi

report() {
  join -a1 -a2 -e0 -o 0,1.2,1.3,1.4,2.2,2.3,2.4 "$tmp/base.counts" "$tmp/head.counts" | awk '
    function row(name, b1, b2, b3, h1, h2, h3) {
      return sprintf("| %s | %d | %+d | %d | %+d | %d | %+d |", name, h1, h1 - b1, h2, h2 - b2, h3, h3 - b3)
    }
    { d = $1; sub(/^\.\/?/, "", d); rows[NR] = row(d == "" ? "repro" : d, $2, $3, $4, $5, $6, $7)
      for (i = 2; i <= 7; i++) t[i] += $i }
    END {
      printf "## Non-test Go lines (excluding bench/e2e): %d, system %d, reference %d\n\n", t[5], t[6], t[7]
      print "| package | total | Δ | system | Δ | reference | Δ |"; print "|---|---:|---:|---:|---:|---:|---:|"
      for (i = 1; i <= NR; i++) print rows[i]
      print row("**total**", t[2], t[3], t[4], t[5], t[6], t[7])
    }'
  awk -F'\t' 'NR == FNR { split($0, c, " "); if (c[3] > 0) sys[c[1]] = 1; next }
    $1 == "reference" { d = "./" $3; sub(/\/[^\/]*$/, "", d)
      if (d in sys) { n++; l += $4; list = list sprintf("- `%s` `%s` (%d lines): %s\n", $3, $2, $4, $5 == "" ? "tests only" : $5) } }
    END { printf "\n### Functions of system packages that no system root keeps: %d, %d lines\n\n%s", n, l, list }' \
    "$tmp/head.counts" "$tmp/head.funcs"
}

report | if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then tee -a "$GITHUB_STEP_SUMMARY"; else cat; fi
