#!/usr/bin/env bash
# End-to-end checks of the diracpair CLI in real processes: the README
# examples, one-line stderr on overflow and on bad input files, the exit code
# of a failed check, and output that does not depend on the hash seed.
#
# usage: tests/cli_checks.sh [COMMAND] [TMPDIR]
#   COMMAND  how to run the CLI, split on spaces (default: diracpair),
#            for example "python3 -m diracpair"
#   TMPDIR   a directory for scratch files (default: a new one from mktemp)
#
# Runs from the repository root, whatever the caller's directory; exits
# nonzero at the first failed check.
set -e
cd "$(dirname "$0")/.."
DIRACPAIR=${1:-diracpair}
TMP=${2:-$(mktemp -d)}
mkdir -p "$TMP"

# README examples; stdout is discarded, a nonzero exit fails
$DIRACPAIR algebra-check --format json > /dev/null
$DIRACPAIR scatter --alt d2 --v0 1533 --emin 520 --emax 5110 --steps 100 > /dev/null
$DIRACPAIR scatter --alt d1 --v0 1533 --width 0.004 --emin 600 --emax 2600 > /dev/null
$DIRACPAIR scatter --alt d1 --well-depth 766.5 --well-width 0.0039 > /dev/null
$DIRACPAIR levels --ion Pb --shells K,L1,L2 > /dev/null
$DIRACPAIR transitions --ion Pb > /dev/null
$DIRACPAIR zbw --dwidth 0.002 --tmax 0.2 --tsteps 400 --p0 1022 > /dev/null
$DIRACPAIR kinematics --deps 818.8 --x 6 --theta 45 --branch + --format json > /dev/null
$DIRACPAIR kinematics invert --deps 818.835 --branch + --target 576 > /dev/null
$DIRACPAIR match --catalog tests/data/catalog_u_pb_576.json --top-k 6 > /dev/null
$DIRACPAIR reproduce-tables > /dev/null
$DIRACPAIR counting-time --x0 1 --xmin 0.1 --xmax 10 --steps 200 > /dev/null
$DIRACPAIR lineshape --deps 818.8 --tmin 800 --tmax 900 --steps 200 > /dev/null

# Overflowing numbers exit 2 with one stderr line that names the flags.
# In-process tests capture numpy's warnings, so only a real process shows what reaches stderr.
for args in "zbw --dwidth 1e-200 --tmax 0.2 --tsteps 2 --p0 0" \
            "scatter --alt=d1 --v0=1 --width=1e130 --emin=1e35 --emax=1e247 --steps=9" \
            "kinematics --deps 1e100 --x 1e290 --branch +"; do
  code=0
  $DIRACPAIR $args > "$TMP/out" 2> "$TMP/err" || code=$?
  cat "$TMP/err"
  test "$code" -eq 2
  test ! -s "$TMP/out"
  test "$(wc -l < "$TMP/err")" -eq 1
  grep -q '^error: --' "$TMP/err"
done

# A null, true or string input-file field, an m_e_keV whose square is not a
# finite normal float and a numeric_tolerance that leaves C unpinned exit 2
# naming the field; a real process, so that a numpy warning on stderr would
# show as a second line
echo '[{"system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic", "observed_keV": null}]' > "$TMP/null.json"
echo '[{"system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic", "observed_keV": true}]' > "$TMP/true.json"
echo '[{"system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic", "observed_keV": "576"}]' > "$TMP/text.json"
echo '{"m_e_keV": 1e155}' > "$TMP/heavy.json"
echo '{"m_e_keV": true}' > "$TMP/bool.json"
echo '{"m_e_keV": 1e-320}' > "$TMP/subnormal.json"
echo '{"m_e_keV": 1e-160}' > "$TMP/light.json"
echo '{"numeric_tolerance": 10}' > "$TMP/tol.json"
check() {
  field=$1
  shift
  code=0
  $DIRACPAIR "$@" > "$TMP/out" 2> "$TMP/err" || code=$?
  cat "$TMP/err"
  test "$code" -eq 2
  test ! -s "$TMP/out"
  test "$(wc -l < "$TMP/err")" -eq 1
  grep -q "^error: .*$field" "$TMP/err"
}
check observed_keV match --catalog "$TMP/null.json"
check observed_keV match --catalog "$TMP/true.json"
check observed_keV match --catalog "$TMP/text.json"
check m_e_keV --config "$TMP/bool.json" levels --ion Pb
check m_e_keV --config "$TMP/subnormal.json" scatter --alt d1 --v0 1533 --emin 520 --emax 5110 --steps 3
check numeric_tolerance --config "$TMP/tol.json" algebra-check --n-random 3
for args in "scatter --alt d1 --well-depth 766.5 --well-width 0.0039" \
            "levels --ion Pb" \
            "kinematics invert --deps 818.835 --branch + --target 576"; do
  for cfg in heavy light; do
    check m_e_keV --config "$TMP/$cfg.json" $args
    # the config file, not a flag, is at fault
    if grep -q -- -- "$TMP/err"; then exit 1; fi
  done
done

# A regression that runs but fails its own check exits 3: the full table on
# stdout, one stderr line with the count of failed headline rows
echo '{"m_e_keV": 1.3e154}' > "$TMP/edge.json"
code=0
$DIRACPAIR --config "$TMP/edge.json" reproduce-tables > "$TMP/out" 2> "$TMP/err" || code=$?
cat "$TMP/err"
test "$code" -eq 3
test "$(wc -l < "$TMP/out")" -eq 55
test "$(wc -l < "$TMP/err")" -eq 1
grep -q '^check failed: [1-9][0-9]* headline rows out of tolerance$' "$TMP/err"

# Same output from two processes with different hash seeds; in-process tests
# share one hash seed, so they cannot see output whose order depends on it.
# CSV text columns (classification, match's system and transition) are
# rendered from their set of distinct values.
for args in "counting-time --x0 1 --xmin 0.1 --xmax 10 --steps 200" \
            "scatter --alt d1 --v0 1533 --width 0.004 --emin 600 --emax 2600" \
            "match --catalog tests/data/catalog_u_pb_576.json" \
            "counting-time --x0 1 --xmin 0.1 --xmax 10 --steps 200 --format json" \
            "scatter --alt d2 --v0 1533 --emin 520 --emax 5110 --steps 100 --format json" \
            "scatter --alt d1 --well-depth 766.5 --well-width 0.0039" \
            "scatter --alt d1 --well-depth 1000 --well-width 10" \
            "lineshape --deps 818.8 --tmin 800 --tmax 900 --steps 200" \
            "zbw --dwidth 0.002 --tmax 0.2 --tsteps 400 --p0 1022" \
            "zbw --dwidth 0.002 --tmax 2 --tsteps 10000 --p0 1022" \
            "levels --ion Pb --format json" \
            "match --catalog tests/data/catalog_u_pb_576.json --format json" \
            "reproduce-tables --format json" \
            "reproduce-tables"; do
  PYTHONHASHSEED=1 $DIRACPAIR $args > "$TMP/first.out"
  PYTHONHASHSEED=2 $DIRACPAIR $args > "$TMP/second.out"
  cmp "$TMP/first.out" "$TMP/second.out"
done

# A beam energy whose angle solve overflows exits 2 whatever --top-k ranks:
# at --top-k 1 and 2 it exited 0, since only lower-ranked candidates
# overflowed at 90 degrees
echo '[{"system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic", "observed_keV": 576, "x_mev_per_u": 1e308}]' > "$TMP/fast.json"
for top in "--top-k 1" ""; do
  code=0
  $DIRACPAIR match --catalog "$TMP/fast.json" $top > "$TMP/out" 2> "$TMP/err" || code=$?
  cat "$TMP/err"
  test "$code" -eq 2
  test ! -s "$TMP/out"
  test "$(wc -l < "$TMP/err")" -eq 1
  grep -q '^error: catalog entry 0: x_mev_per_u' "$TMP/err"
done

# A pair energy below zero exits 2 naming the flags: below about 65.6 keV the
# "+" branch emits no pair at 45 degrees, and T_lab_keV was printed negative
code=0
$DIRACPAIR kinematics --deps 50 --x 6 --theta 45 --branch + > "$TMP/out" 2> "$TMP/err" || code=$?
cat "$TMP/err"
test "$code" -eq 2
test ! -s "$TMP/out"
test "$(wc -l < "$TMP/err")" -eq 1
grep -q '^error: --deps, --x, --theta: no pair is emitted' "$TMP/err"

# Every reproduce-tables CSV row, read by a CSV parser, has the header's
# length: two rows printed a flags cell holding a comma unquoted
$DIRACPAIR reproduce-tables > "$TMP/out"
python3 -c '
import csv, sys
rows = list(csv.reader(line for line in open(sys.argv[1], newline="") if not line.startswith("#")))
bad = [row for row in rows if len(row) != len(rows[0])]
sys.exit(f"{len(bad)} rows off the header length" if bad else 0)
' "$TMP/out"

# A supercritical alpha0 exits 2 with one stderr line that does not blame the
# beam energy: match printed "catalog entry 0: x_mev_per_u: supercritical: ..."
echo '{"alpha0": 0.05}' > "$TMP/supercritical.json"
code=0
$DIRACPAIR --config "$TMP/supercritical.json" match --catalog tests/data/catalog_u_pb_576.json > "$TMP/out" 2> "$TMP/err" || code=$?
cat "$TMP/err"
test "$code" -eq 2
test ! -s "$TMP/out"
test "$(wc -l < "$TMP/err")" -eq 1
grep -q 'supercritical' "$TMP/err"
if grep -q 'x_mev_per_u' "$TMP/err"; then exit 1; fi

# A flag that only the other mode reads exits 2 with one stderr line naming
# it: each ran the other mode, dropped the flag and exited 0
check --well-width scatter --alt d1 --v0 1533 --width 0.004 --emin 600 --emax 2600 --well-width 1
check --v0 scatter --alt d1 --v0 1533 --emin 600 --emax 2600 --well-depth 766.5 --well-width 0.0039
check --target kinematics --deps 818.8 --branch + --target 576
check --theta kinematics invert --deps 818.835 --branch + --target 576 --theta 10
