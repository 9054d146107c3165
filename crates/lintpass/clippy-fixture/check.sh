#!/usr/bin/env bash
# Runs clippy on the fixture crate with the workspace's flags
# (`-D warnings -F unsafe_code`, root clippy.toml) and demands a failing
# exit with exactly the diagnostics listed in expected.txt: each
# determinism or safety check the compiler took over from lintpass must
# still reject its fixture at the expected line. Needs cargo-clippy and jq.
#
#   crates/lintpass/clippy-fixture/check.sh
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/clippy-fixture}"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

if (cd "$here" && cargo clippy --offline --all-targets --message-format=json \
    -- -D warnings -F unsafe_code) >"$log"; then
    echo "clippy-fixture: clippy passed, but every fixture item must be rejected" >&2
    exit 1
fi
# The lib and its test harness both compile the items, so each diagnostic
# arrives twice; keep one per (line, lint).
got=$(jq -r 'select(.reason == "compiler-message") | .message
        | select(.code != null)
        | "\(.spans[] | select(.is_primary) | "\(.file_name):\(.line_start)") \(.code.code)"' \
    "$log" | sort -uV)
want=$(grep -v '^#' "$here/expected.txt")
if ! diff -u <(echo "$want") <(echo "$got") >&2; then
    echo "clippy-fixture: diagnostics differ from expected.txt (- expected, + got)" >&2
    exit 1
fi
echo "clippy-fixture: ok, $(echo "$got" | wc -l) expected diagnostics"
