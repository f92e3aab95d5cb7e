#!/usr/bin/env bash
# The line count of src/, one definition for every report: the .h and .cc
# files only (src/CMakeLists.txt is not counted), in total and code-only (no
# blank lines, no lines that hold only a // comment).
#
#   tools/src_lines.sh [REV]
#
# Without REV it counts the files in the worktree; with REV (any git
# revision) the files committed there. Prints one line:
#   src/ .h/.cc lines: TOTAL total, CODE code-only

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-}"

if [ -n "$rev" ]; then
  mapfile -t files < <(git -C "$repo" ls-tree -r --name-only "$rev" -- src |
                       grep -E '\.(h|cc)$' | LC_ALL=C sort)
  contents() { for f in "${files[@]}"; do git -C "$repo" show "$rev:$f"; done; }
else
  mapfile -t files < <(cd "$repo" && find src -type f \( -name '*.h' -o -name '*.cc' \) |
                       LC_ALL=C sort)
  contents() { (cd "$repo" && cat "${files[@]}"); }
fi

if [ "${#files[@]}" -eq 0 ]; then
  echo "no .h/.cc files under src/${rev:+ at $rev}" >&2
  exit 1
fi

total="$(contents | wc -l)"
code="$(contents | grep -cvE '^[[:space:]]*(//.*)?$')"
echo "src/ .h/.cc lines: $total total, $code code-only"
