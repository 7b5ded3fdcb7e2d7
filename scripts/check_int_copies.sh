#!/usr/bin/env bash
# Fails if a polymorphic Array.blit appears in the engine's row-copy
# modules.  On an int array whose destination lives in the major heap, the
# polymorphic blit pays the write barrier (caml_modify) per word; these
# modules copy rows with Store.Intvec.blit_ints instead.
#
#   bash scripts/check_int_copies.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=(
  lib/engine/relation.ml
  lib/engine/rowtable.ml
  lib/engine/executor.ml
  lib/engine/morsel.ml
  lib/store/intvec.ml
)

if grep -n 'Array\.blit' "${files[@]}"; then
  echo "check_int_copies: use Store.Intvec.blit_ints, not Array.blit, in the files above" >&2
  exit 1
fi
echo "check_int_copies: no polymorphic row copies"
