#!/usr/bin/env bash
# A mistyped element name is a usage error, not a crash: every clara_cli
# command that takes one element prints `unknown element '<name>'` and exits 2.
#
# Usage: cli_unknown_element.sh [build-dir]   (defaults to the current directory)
set -uo pipefail

CLI="${1:-$(pwd)}/tools/clara_cli"
status=0
for cmd in show ir asm profile insights; do
  err=$("$CLI" "$cmd" no_such_nf 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || [ "$err" != "unknown element 'no_such_nf'" ]; then
    echo "clara_cli $cmd no_such_nf: exit $rc, stderr: $err" >&2
    status=1
  fi
done
exit "$status"
