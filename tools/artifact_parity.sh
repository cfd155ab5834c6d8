#!/usr/bin/env bash
# Check that two source trees produce byte-identical pipeline artifacts.
#
#   tools/artifact_parity.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a checkout root holding src/twotower. For each of four
# configs, the script runs synth -> train -> index -> eval through the CLI
# once per tree, each in its own directory with the same relative paths,
# and compares the results file by file: stores, manifest, checkpoint,
# JSON-lines log, index, every stage's stdout, and the dataset, train and
# eval reports with their "meta" block removed (timing lives there).
#
# Prints one line per compared file and config, "same" or "DIFF", and exits
# 0 only if every file is the same. The work directory is deleted when
# everything matches and kept for inspection otherwise.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 64
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
for tree in "$parent" "$change"; do
    if [ ! -d "$tree/src/twotower" ]; then
        echo "$tree has no src/twotower" >&2
        exit 64
    fi
done
python=${PYTHON:-python3}
work=$(mktemp -d "${TMPDIR:-/tmp}/artifact_parity.XXXXXX")

big="--set data.synth.n_images=2000 --set data.synth.noise_sigma=0.8 --set train.epochs=5"
configs=(
    "default|"
    "n2000|$big"
    "n2000-sym-aug|$big --set loss.symmetric=true --set data.augment.copies=2 --set data.augment.sigma=0.1"
    "n2000-hard|$big --set loss.margin_mode=hard_negative"
)

run_pipeline() {  # tree, run dir, config flags
    local tree=$1 dir=$2 sets=$3
    mkdir -p "$dir"
    (
        cd "$dir"
        export PYTHONPATH="$tree/src"
        # shellcheck disable=SC2086  # the flags are meant to split
        {
            "$python" -m twotower synth $sets --out-dir data > synth.out
            "$python" -m twotower train $sets --manifest data/manifest.jsonl \
                --images data/images.emb --texts data/texts.emb \
                --checkpoint model.ckpt --log train.log --report train.json > train.out
            "$python" -m twotower index --checkpoint model.ckpt \
                --images data/images.emb --out images.idx > index.out
            "$python" -m twotower eval $sets --index images.idx --checkpoint model.ckpt \
                --texts data/texts.emb --manifest data/manifest.jsonl \
                --report eval.json > eval.out
        }
    )
}

same_outside_meta() {  # two JSON report paths
    "$python" - "$1" "$2" <<'EOF'
import json
import sys

a, b = (json.load(open(p, encoding="utf-8")) for p in sys.argv[1:3])
for report in (a, b):
    report.pop("meta", None)
sys.exit(0 if a == b else 1)
EOF
}

failed=0
for entry in "${configs[@]}"; do
    name=${entry%%|*}
    sets=${entry#*|}
    run_pipeline "$parent" "$work/$name/parent" "$sets"
    run_pipeline "$change" "$work/$name/change" "$sets"
    for f in data/images.emb data/texts.emb data/manifest.jsonl model.ckpt train.log \
        images.idx synth.out train.out index.out eval.out; do
        if cmp -s "$work/$name/parent/$f" "$work/$name/change/$f"; then
            verdict=same
        else
            verdict=DIFF
            failed=1
        fi
        printf '%-14s %-34s %s\n' "$name" "$f" "$verdict"
    done
    for f in data/dataset.json train.json eval.json; do
        if same_outside_meta "$work/$name/parent/$f" "$work/$name/change/$f"; then
            verdict=same
        else
            verdict=DIFF
            failed=1
        fi
        printf '%-14s %-34s %s\n' "$name" "$f (outside meta)" "$verdict"
    done
done

if [ "$failed" -eq 0 ]; then
    rm -rf "$work"
    echo "all artifacts identical"
else
    echo "artifacts differ; outputs kept in $work"
fi
exit "$failed"
