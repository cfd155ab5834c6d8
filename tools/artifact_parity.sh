#!/usr/bin/env bash
# Check that two source trees produce byte-identical pipeline artifacts.
#
#   tools/artifact_parity.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a checkout root holding src/twotower. For each of seven
# configs, the script runs synth -> ingest -> train -> index -> eval -> query
# through the CLI once per tree, each in its own directory with the same
# relative paths, and compares the results file by file: stores, manifest,
# checkpoint, JSON-lines log, index, every stage's stdout, CLI query output
# for the first test caption at --k 7 and --k 5000, the same query run inline
# at --k 7 (--embedding with the caption's text feature, written as a JSON
# array of float reprs: query_inline.out), and the dataset, ingest, train and
# eval reports with their "meta" block removed (timing lives there). Each
# tree also writes a copy of the image store whose ids are led by characters
# of 0, 2, 3 and 4 UTF-8 bytes in turn (nonascii.emb), so its id block mixes
# widths and is not ASCII, then runs index (nonascii.idx, index_nonascii.out)
# and the --k 7 query (query_nonascii.out) on that copy.
# Eval runs twice: from --manifest, where each query has one relevant image,
# and from --judgments, on a file that gives each test caption its own image
# and the next test image in id order as relevant, so evaluate's ranking of
# several relevant images per query is compared too (eval_judgments.out and
# eval_judgments.json). A third eval runs on a skewed judgments file: the
# first test caption names every test image and every other caption its own
# image, so one query's pairs outnumber its block's queries and are ranked
# in several slices (eval_skewed.out and eval_skewed.json).
# It then truncates each binary artifact (stores, checkpoint, index) to half
# its length, and separately flips all bits of its first byte, runs index and
# query with the corrupt copy in place, and compares the exit code and the
# stderr "error" kind of each run (corrupt.out); the messages are not compared.
# In the same way it edits the id block of each store and the index at its
# middle id (cut inside the id, a 0xFF id byte, the length prefix one too
# large) and compares the exit code and whole stderr of each run
# (id_faults.out): a fixed-width id block is read in one pass, and every
# fault must still be found by the per-id reader, with its message and byte
# offset. The "c12" config gives text ids of two widths ("#c9", "#c10"), so
# its text store is read id by id. The "bs48-lam0" config trains the default
# data in batches of 48 with no margin term: its 100 val pairs end in a short
# chunk of 4, so training runs buffers of two batch lengths other than the
# default 64, and the hinge branch never runs.
# Last, it writes edited copies of the manifest, one fault each (bad JSON, a
# missing or non-string field, a bad split, a duplicate pair, invalid UTF-8,
# two values on one line, one value over two lines, a ragged image, an
# unknown image id, a repeated text id), runs ingest and eval --manifest on
# each, then runs eval --judgments on a judgments file whose one line names an
# unknown image id, and compares the exit code and the whole stderr of every
# run (manifest_faults.out).
# Once per tree, outside the configs, at COLUMNS=80, it runs the help of
# the top level and of each command (help.out). Then (usage.out) it runs a
# bare "twotower", an unknown command, for each command a run missing a
# required flag and a run with an unknown flag, "query --k x", "eval" given
# both --manifest and --judgments, and, with every input path missing, one
# config or usage fault for each command that has one (synth --seed -1,
# ingest data.captions_per_image=0, train train.epochs=0, query --k 0,
# eval --split bogus; index has none). It compares the exit code, stdout
# and stderr of every run in full: help and usage errors must read as they
# did, and each fault must still be reported before an input is opened. Then (usage_inproc.out) it
# runs the same help and usage lines again, one after another, through
# twotower.cli.main in one Python process, and records each run's exit code
# (a SystemExit's included), stdout and stderr: a process reuses its one
# parser, and a reused parser must read as a fresh one. Also
# once per tree, it runs each script in the tree's demos/ against its src
# and compares the stdout (demos/<name>.out). Two parts of the quickstart's
# output differ from run to run and are masked: its "artifacts under <dir>"
# line, which names a fresh temporary directory, and the trailing ", <n>s"
# wall time of its "best val loss" line.
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
    "n2000-t05|$big --set loss.temperature=0.5"
    "c12|--set data.synth.captions_per_image=12 --set data.captions_per_image=12"
    "bs48-lam0|--set train.batch_size=48 --set loss.lambda=0"
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
            "$python" -m twotower ingest $sets --manifest data/manifest.jsonl \
                --images data/images.emb --texts data/texts.emb --out ingest.json > ingest.out
            "$python" -m twotower train $sets --manifest data/manifest.jsonl \
                --images data/images.emb --texts data/texts.emb \
                --checkpoint model.ckpt --log train.log --report train.json > train.out
            "$python" -m twotower index --checkpoint model.ckpt \
                --images data/images.emb --out images.idx > index.out
            "$python" -m twotower eval $sets --index images.idx --checkpoint model.ckpt \
                --texts data/texts.emb --manifest data/manifest.jsonl \
                --report eval.json > eval.out
        }
        "$python" - data/manifest.jsonl judgments.jsonl <<'EOF'
import json
import sys

source, out = sys.argv[1:]
rows = [r for r in map(json.loads, open(source, encoding="utf-8")) if r["split"] == "test"]
images = sorted({r["image_id"] for r in rows})
following = dict(zip(images, images[1:] + images[:1]))
with open(out, "w", encoding="utf-8") as fh:
    for r in rows:
        relevant = sorted({r["image_id"], following[r["image_id"]]})
        line = {"query_id": r["text_id"], "relevant_ids": relevant, "correct_id": r["image_id"]}
        fh.write(json.dumps(line) + "\n")
with open("skewed.jsonl", "w", encoding="utf-8") as fh:
    for i, r in enumerate(rows):
        relevant = images if i == 0 else [r["image_id"]]
        line = {"query_id": r["text_id"], "relevant_ids": relevant, "correct_id": r["image_id"]}
        fh.write(json.dumps(line) + "\n")
EOF
        local j
        for j in judgments skewed; do
            # shellcheck disable=SC2086  # the flags are meant to split
            "$python" -m twotower eval $sets --index images.idx --checkpoint model.ckpt \
                --texts data/texts.emb --judgments "$j.jsonl" \
                --report "eval_$j.json" > "eval_$j.out"
        done
        # the first held-out caption, ranked at a small k and at a k past the index size
        local qid
        qid=$("$python" -c 'import json, sys
print(next(r["text_id"] for r in map(json.loads, open(sys.argv[1])) if r["split"] == "test"))' \
            data/manifest.jsonl)
        for k in 7 5000; do
            "$python" -m twotower query --index images.idx --checkpoint model.ckpt \
                --texts data/texts.emb --text-id "$qid" --k "$k" > "query$k.out"
        done
        local vec
        vec=$("$python" -c 'import sys
from twotower.data import load_embeddings
row = load_embeddings(sys.argv[1]).row(sys.argv[2])
print("[" + ", ".join(repr(float(x)) for x in row) + "]")' data/texts.emb "$qid")
        "$python" -m twotower query --index images.idx --checkpoint model.ckpt \
            --embedding "$vec" --k 7 > query_inline.out
        # the image store again, each id led by a character of 0, 2, 3 or 4 UTF-8
        # bytes in turn, so its id block mixes widths and is not ASCII; it is
        # written by the tree, then indexed and queried like the original
        "$python" - data/images.emb nonascii.emb <<'EOF'
import sys

from twotower.data import EmbeddingStore, load_embeddings, save_embeddings

source, out = sys.argv[1:]
store = load_embeddings(source)
marks = ["", "\u00e9", "\u20ac", "\U0001d11e"]
ids = [marks[i % 4] + id_ for i, id_ in enumerate(store.ids)]
save_embeddings(EmbeddingStore(ids=ids, vectors=store.vectors, kind=store.kind), out)
EOF
        "$python" -m twotower index --checkpoint model.ckpt --images nonascii.emb \
            --out nonascii.idx > index_nonascii.out
        "$python" -m twotower query --index nonascii.idx --checkpoint model.ckpt \
            --texts data/texts.emb --text-id "$qid" --k 7 > query_nonascii.out
        local f how code
        for f in data/images.emb data/texts.emb model.ckpt images.idx; do
            for how in truncated magic; do
                cp "$f" intact.tmp
                "$python" -c 'import sys
path, how = sys.argv[1:]
raw = open(path, "rb").read()
raw = raw[: len(raw) // 2] if how == "truncated" else bytes([raw[0] ^ 0xFF]) + raw[1:]
open(path, "wb").write(raw)' "$f" "$how"
                code=0
                "$python" -m twotower index --checkpoint model.ckpt --images data/images.emb \
                    --out corrupt.idx > /dev/null 2> index.err || code=$?
                echo "$f $how index $code $(error_kind index.err)" >> corrupt.out
                code=0
                "$python" -m twotower query --index images.idx --checkpoint model.ckpt \
                    --texts data/texts.emb --text-id "$qid" --k 7 > /dev/null 2> query.err || code=$?
                echo "$f $how query $code $(error_kind query.err)" >> corrupt.out
                mv intact.tmp "$f"
            done
        done
        for f in data/images.emb data/texts.emb images.idx; do
            for how in id-truncated id-byte-ff id-prefix-up; do
                cp "$f" intact.tmp
                "$python" - "$f" "$how" <<'EOF'
import struct
import sys

path, how = sys.argv[1:]
raw = bytearray(open(path, "rb").read())
count, dim = struct.unpack_from("<QI", raw, 8)
at = 28 + 4 * count * dim  # the id block, past the header and the float32 rows
for _ in range(count // 2):  # to the length prefix of the middle id
    at += 2 + struct.unpack_from("<H", raw, at)[0]
(width,) = struct.unpack_from("<H", raw, at)
if how == "id-truncated":
    raw = raw[: at + 2 + width // 2]
elif how == "id-byte-ff":
    raw[at + 2 + width // 2] = 0xFF
else:
    struct.pack_into("<H", raw, at, width + 1)
open(path, "wb").write(raw)
EOF
                code=0
                "$python" -m twotower index --checkpoint model.ckpt --images data/images.emb \
                    --out corrupt.idx > /dev/null 2> index.err || code=$?
                { echo "$f $how index $code"; cat index.err; } >> id_faults.out
                code=0
                "$python" -m twotower query --index images.idx --checkpoint model.ckpt \
                    --texts data/texts.emb --text-id "$qid" --k 7 > /dev/null 2> query.err || code=$?
                { echo "$f $how query $code"; cat query.err; } >> id_faults.out
                mv intact.tmp "$f"
            done
        done
        mkdir -p faults
        "$python" - data/manifest.jsonl faults <<'EOF'
import json
import sys

source, out = sys.argv[1:]
lines = open(source, "rb").read().split(b"\n")[:-1]
rows = [json.loads(line) for line in lines]


def edited(k, row):
    return lines[:k] + [json.dumps(row, ensure_ascii=False).encode()] + lines[k + 1 :]


head, tail = lines[11].split(b", ", 1)
first = rows[0]["image_id"]
faults = {
    "bad-json": lines[:2] + [b"{not json}"] + lines[3:],
    "missing-field": edited(3, {k: v for k, v in rows[3].items() if k != "lang"}),
    "non-string-field": edited(4, {**rows[4], "caption": 7}),
    "bad-split": edited(5, {**rows[5], "split": "dev"}),
    "duplicate-pair": lines[:7] + [lines[0]] + lines[8:],
    "not-utf8": lines[:8] + [lines[8].replace(b'"caption": "', b'"caption": "\xff')] + lines[9:],
    "two-values-one-line": lines[:9] + [lines[9] + b" " + lines[10]] + lines[11:],
    "value-over-two-lines": lines[:11] + [head + b",", tail] + lines[12:],
    "ragged-image": lines[1:],
    "unknown-image": [edited(k, {**r, "image_id": "ghost"})[k] if r["image_id"] == first else line
                      for k, (r, line) in enumerate(zip(rows, lines))],
    "repeated-text-id": edited(6, {**rows[6], "text_id": rows[5]["text_id"]}),
}
for name, edit in faults.items():
    open(f"{out}/{name}.jsonl", "wb").write(b"\n".join(edit) + b"\n")
qid = next(r["text_id"] for r in rows if r["split"] == "test")
ghost = {"query_id": qid, "relevant_ids": ["ghost"], "correct_id": "ghost"}
open(f"{out}/unknown-image.judgments", "w").write(json.dumps(ghost) + "\n")
EOF
        local m
        for m in faults/*.jsonl; do
            for how in ingest eval; do
                code=0
                # shellcheck disable=SC2086  # the flags are meant to split
                if [ "$how" = ingest ]; then
                    "$python" -m twotower ingest $sets --manifest "$m" --images data/images.emb \
                        --texts data/texts.emb > /dev/null 2> fault.err || code=$?
                else
                    "$python" -m twotower eval $sets --index images.idx --checkpoint model.ckpt \
                        --texts data/texts.emb --manifest "$m" > /dev/null 2> fault.err || code=$?
                fi
                { echo "$m $how $code"; cat fault.err; } >> manifest_faults.out
            done
        done
        code=0
        # shellcheck disable=SC2086  # the flags are meant to split
        "$python" -m twotower eval $sets --index images.idx --checkpoint model.ckpt \
            --texts data/texts.emb --judgments faults/unknown-image.judgments \
            > /dev/null 2> fault.err || code=$?
        { echo "faults/unknown-image.judgments eval $code"; cat fault.err; } >> manifest_faults.out
    )
}

run_cli() {  # tree, run dir, output file; reads one command line per run from stdin
    local tree=$1 dir=$2 out=$3
    mkdir -p "$dir"
    (
        cd "$dir"
        export PYTHONPATH="$tree/src" COLUMNS=80
        local args code
        while IFS= read -r args; do
            code=0
            # shellcheck disable=SC2086  # each line splits into its arguments; none is a glob
            "$python" -m twotower $args > run.stdout 2> run.stderr < /dev/null || code=$?
            {
                echo "twotower $args -> exit $code"
                echo "stdout:"; cat run.stdout
                echo "stderr:"; cat run.stderr
            } >> "$out"
        done
    )
}

run_cli_inproc() {  # tree, run dir, output file; reads one command line per run from stdin
    local tree=$1 dir=$2 out=$3
    mkdir -p "$dir"
    (
        cd "$dir"
        export PYTHONPATH="$tree/src" COLUMNS=80
        "$python" -c 'import contextlib
import io
import sys

from twotower.cli import main

with open(sys.argv[1], "w", encoding="utf-8") as report:
    for line in sys.stdin:
        args = line.rstrip("\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args.split())
            except SystemExit as e:
                code = 0 if e.code is None else e.code
        report.write(f"twotower {args} -> exit {code}\nstdout:\n{out.getvalue()}stderr:\n{err.getvalue()}")' \
            "$out"
    )
}

help_runs='--help
synth --help
ingest --help
train --help
index --help
query --help
eval --help'

# every input path here is missing: each fault must be reported before an input is opened
usage_runs='
bogus
synth
synth --out-dir d --bogus
ingest --manifest m --images i
ingest --manifest m --images i --texts t --bogus
train --manifest m --images i --texts t
train --manifest m --images i --texts t --checkpoint c --bogus
index --checkpoint c --images i
index --checkpoint c --images i --out o --bogus
query --index x
query --index x --checkpoint c --bogus
query --index x --checkpoint c --text-id q --k x
eval --index x --checkpoint c --texts t
eval --index x --checkpoint c --texts t --manifest m --bogus
eval --index x --checkpoint c --texts t --manifest m --judgments j
synth --out-dir d --seed -1
ingest --manifest m --images i --texts t --set data.captions_per_image=0
train --manifest m --images i --texts t --checkpoint c --set train.epochs=0
query --index x --checkpoint c --k 0
eval --index x --checkpoint c --texts t --manifest m --split bogus'

run_demos() {  # tree, run dir
    local tree=$1 dir=$2 demo name
    mkdir -p "$dir"
    for demo in "$tree"/demos/*.py; do
        name=$(basename "$demo" .py)
        (cd "$dir" && TMPDIR="$dir" PYTHONPATH="$tree/src" "$python" "$demo") > "$dir/$name.out"
        if [ "$name" = quickstart_retrieval ]; then
            sed -E -i -e 's/^artifacts under .* \(removed at the end\)$/artifacts under <dir> (removed at the end)/' \
                -e '/^best val loss /s/, [0-9.]+s$/, <n>s/' "$dir/$name.out"
        fi
    done
}

error_kind() {  # the "error" field of a stderr file, or "-" when it is empty
    "$python" -c 'import json, sys
text = open(sys.argv[1], encoding="utf-8").read()
print(json.loads(text)["error"] if text else "-")' "$1"
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
for tree in parent change; do
    run_cli "${!tree}" "$work/usage/$tree" help.out <<< "$help_runs"
    run_cli "${!tree}" "$work/usage/$tree" usage.out <<< "$usage_runs"
    run_cli_inproc "${!tree}" "$work/usage/$tree" usage_inproc.out <<< "$help_runs
$usage_runs"
done
for f in help.out usage.out usage_inproc.out; do
    if cmp -s "$work/usage/parent/$f" "$work/usage/change/$f"; then
        verdict=same
    else
        verdict=DIFF
        failed=1
    fi
    printf '%-14s %-34s %s\n' usage "$f" "$verdict"
done
run_demos "$parent" "$work/demos/parent"
run_demos "$change" "$work/demos/change"
for f in "$work"/demos/parent/*.out; do
    name=$(basename "$f")
    if cmp -s "$f" "$work/demos/change/$name"; then
        verdict=same
    else
        verdict=DIFF
        failed=1
    fi
    printf '%-14s %-34s %s\n' demos "$name" "$verdict"
done
for entry in "${configs[@]}"; do
    name=${entry%%|*}
    sets=${entry#*|}
    run_pipeline "$parent" "$work/$name/parent" "$sets"
    run_pipeline "$change" "$work/$name/change" "$sets"
    for f in data/images.emb data/texts.emb data/manifest.jsonl model.ckpt train.log \
        images.idx synth.out ingest.out train.out index.out eval.out eval_judgments.out \
        eval_skewed.out query7.out query5000.out query_inline.out nonascii.emb nonascii.idx \
        index_nonascii.out query_nonascii.out corrupt.out id_faults.out manifest_faults.out; do
        if cmp -s "$work/$name/parent/$f" "$work/$name/change/$f"; then
            verdict=same
        else
            verdict=DIFF
            failed=1
        fi
        printf '%-14s %-34s %s\n' "$name" "$f" "$verdict"
    done
    for f in data/dataset.json ingest.json train.json eval.json eval_judgments.json \
        eval_skewed.json; do
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
