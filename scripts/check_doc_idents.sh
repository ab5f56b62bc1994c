#!/usr/bin/env bash
# Fail when DESIGN.md, README.md or EXPERIMENTS.md names code that does
# not exist. Two shapes of backticked identifier are checked:
#
#   `path/to/file.rs` (optionally `:line` or `::item`): some source file's
#       path ends with it, and an `::item` occurs as a word in that file;
#   `Type::Item` (also `Type::Item(..)` and `Type::{A, B}`): `Type` is
#       declared as a struct, enum, trait or type alias, and every item
#       is declared somewhere as a fn, an enum variant or a field.
#
# Usage: scripts/check_doc_idents.sh   (from anywhere; exits 1 on a miss)
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(DESIGN.md README.md EXPERIMENTS.md)
mapfile -t sources < <(find . -name '*.rs' -not -path '*/target/*' | sed 's|^\./||' | sort)

missing=0
miss() {
  echo "unresolved in $1: \`$2\` ($3)" >&2
  missing=1
}

declares_type() {
  grep -qE "\b(struct|enum|trait|type) $1\b" "${sources[@]}"
}

declares_item() {
  grep -qE "\bfn $1\b|^\s*(pub(\([a-z]+\))? )?$1\b\s*([:,({]|$)" "${sources[@]}"
}

for doc in "${docs[@]}"; do
  while IFS= read -r tok; do
    tok=${tok#\`}
    tok=${tok%\`}
    if [[ $tok =~ ^([A-Za-z0-9_./-]+\.rs)(:[0-9-]+)?(::([A-Za-z_][A-Za-z0-9_]*))?$ ]]; then
      path=${BASH_REMATCH[1]}
      item=${BASH_REMATCH[4]}
      file=""
      for s in "${sources[@]}"; do
        if [[ $s == "$path" || $s == */"$path" ]]; then
          file=$s
          break
        fi
      done
      if [[ -z $file ]]; then
        miss "$doc" "$tok" "no such file"
      elif [[ -n $item ]] && ! grep -qw -- "$item" "$file"; then
        miss "$doc" "$tok" "no $item in $file"
      fi
    elif [[ $tok =~ ^([A-Z][A-Za-z0-9_]*)::(.*)$ ]]; then
      ty=${BASH_REMATCH[1]}
      rest=${BASH_REMATCH[2]}
      if ! declares_type "$ty"; then
        miss "$doc" "$tok" "no type $ty"
        continue
      fi
      if [[ $rest == \{* ]]; then
        # `Type::{A, B(..)}`: the leading identifier of each entry.
        mapfile -t items < <(sed -E 's/^\{//; s/\}.*$//' <<<"$rest" | tr ',' '\n' |
          sed -E 's/^ *([A-Za-z_][A-Za-z0-9_]*).*/\1/')
      else
        mapfile -t items < <(sed -E 's/^([A-Za-z_][A-Za-z0-9_]*).*/\1/' <<<"$rest")
      fi
      for item in "${items[@]}"; do
        if ! declares_item "$item"; then
          miss "$doc" "$tok" "no fn, variant or field $item"
        fi
      done
    fi
  done < <(grep -ohE '`[^`]+`' "$doc" | sort -u)
done

if [[ $missing -ne 0 ]]; then
  echo "error: documents name code that does not exist" >&2
  exit 1
fi
echo "doc identifiers resolve (${docs[*]})"
