#!/usr/bin/env python3
"""Tables from the stacks scripts/prof/prof.c dumped.

    report.py --binary perf/target/release/lsm_perf [--within FN] [--without FN]
              [--lines] [--top N] run.1.prof [run.2.prof ...]

Every address inside the binary is rebased on the binary's first mapping
and resolved with `addr2line -f -C -i -e` (a leaf address as it is, a
return address minus one, so that a call at the end of an inlined body
resolves to the call and not to what follows it); inlined frames count as
frames. Addresses elsewhere are named by their mapping (`[libc.so.6]`).

  self        samples whose innermost frame is the function
  inclusive   samples with the function anywhere on the stack
  by caller   for samples that ended outside the binary (malloc, free,
              memcpy ...): the innermost function of the binary on the stack
  by line     with --lines: self again, by `file:line in function` of the
              innermost frame that is not the standard library's, so what an
              iterator chain costs shows at the line that wrote it

`--within FN` keeps the samples with a function containing FN on the stack,
`--without FN` drops them; both may repeat. Percentages are of the samples
kept. Several files are several runs of one binary, merged.

A dump starts with the size and mtime of the binary it profiled, and a
`--binary` that is not that file — rebuilt since, or another build — is
refused: its addresses would resolve, to the wrong functions.
"""
import argparse
import collections
import os
import re
import subprocess
import sys


def parse(path, binary):
    """-> (stacks, spans): stacks of absolute addresses, leaf first, and the
    run's mappings as (start, end, base, name), base None outside `binary`."""
    spans, stacks, base = [], [], None
    with open(path) as f:
        check_identity(path, f.readline(), binary)
        for line in f:
            if line.startswith("STACKS"):
                break
            fields = line.split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5] if len(fields) > 5 else "[anon]"
            if os.path.basename(name) == os.path.basename(binary):
                base = start if base is None else base
                spans.append((start, end, base, name))
            else:
                spans.append((start, end, None, name))
        for line in f:
            if line.strip():
                stacks.append([int(x, 16) for x in line.split()])
    if base is None:
        sys.exit(f"{path}: no mapping of {binary}")
    return stacks, spans


def check_identity(path, head, binary):
    """Exit unless `head`, a dump's first line, names `binary` as it is now."""
    fields = head.split(None, 3)
    if len(fields) != 4 or fields[0] != "BINARY":
        sys.exit(f"{path}: no BINARY line (a dump of an older prof.c): profile again")
    size, mtime, profiled = int(fields[1]), fields[2], fields[3].rstrip("\n")
    st = os.stat(binary)
    now = f"{st.st_mtime_ns // 10**9}.{st.st_mtime_ns % 10**9:09d}"
    if (size, mtime) != (st.st_size, now):
        sys.exit(f"{path}: profiled {profiled} ({size} bytes, mtime {mtime}), but {binary} is "
                 f"{st.st_size} bytes, mtime {now}: rebuilt since, or another build")


def locate(addr, spans):
    for start, end, base, name in spans:
        if start <= addr < end:
            return base, name
    return None, "[unmapped]"


def resolve(binary, offsets):
    """offset in the binary -> its frames, innermost first (inlined ones too),
    each `(function, file:line)`."""
    offsets = sorted(offsets)
    if not offsets:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary] + [hex(o) for o in offsets],
        check=True, capture_output=True, text=True).stdout.splitlines()
    frames, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            # Function line, then file:line; drop the hash rustc appends and
            # the directories above the crate (`std:` marks the toolchain's).
            where = out[i + 1].split(" (discriminator")[0]
            where = ("std:" if "/rustc/" in where else "") + re.sub(r"^.*/(?=[^/]+/src/)", "", where)
            current.append((re.sub(r"::h[0-9a-f]{16}$", "", out[i]), where))
            i += 2
    return frames


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--binary", required=True)
    ap.add_argument("--within", action="append", default=[])
    ap.add_argument("--without", action="append", default=[])
    ap.add_argument("--lines", action="store_true")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args()

    # One (kind, value) per frame: an offset in the binary, or a mapping's name.
    samples, offsets = [], set()
    for path in args.runs:
        stacks, spans = parse(path, args.binary)
        for stack in stacks:
            sample = []
            for depth, addr in enumerate(stack):
                base, name = locate(addr, spans)
                if base is None:
                    sample.append((None, f"[{os.path.basename(name)}]"))
                else:
                    offset = addr - base - (1 if depth else 0)
                    offsets.add(offset)
                    sample.append((offset, None))
            samples.append(sample)
    frames = resolve(args.binary, offsets)

    self_, inclusive, by_caller, by_line = (collections.Counter() for _ in range(4))
    kept = 0
    for sample in samples:
        located = [f for off, name in sample for f in (frames[off] if name is None else [(name, "")])]
        names = [n for n, _ in located]
        if not names:
            continue
        if not all(any(w in n for n in names) for w in args.within):
            continue
        if any(w in n for n in names for w in args.without):
            continue
        kept += 1
        self_[names[0]] += 1
        inclusive.update(set(names))
        if sample[0][0] is None:
            caller = next((frames[off][0][0] for off, name in sample if name is None), "[none]")
            by_caller[f"{names[0]} <- {caller}"] += 1
        else:
            ours = next((f for f in frames[sample[0][0]] if not f[1].startswith("std:")), located[0])
            by_line[f"{ours[1]} in {ours[0]}"] += 1
    print(f"{len(samples)} samples in {len(args.runs)} run(s), {kept} kept")
    if kept:
        table("self", self_, kept, args.top)
        table("inclusive", inclusive, kept, args.top)
        table("outside the binary, by caller", by_caller, kept, args.top)
        if args.lines:
            table("self, by line", by_line, kept, args.top)


if __name__ == "__main__":
    main()
