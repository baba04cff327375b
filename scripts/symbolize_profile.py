#!/usr/bin/env python3
"""Symbolizes profiles written by sigprof_sampler.c (see profile_fabricbench.sh).

    symbolize_profile.py report RUN.prof [--top N]
    symbolize_profile.py diff BEFORE.prof AFTER.prof [--top N]

Each sampled PC goes through `addr2line -f -i -C` on the executable named in
the profile's header. A PC is booked three ways:
  * by function: the outermost frame, the function the machine code belongs to;
  * by inlined function: the innermost frame, the source function whose code
    the PC runs (an inlined FlatIndex::find, say, inside MapCache::lookup);
  * by line: the innermost frame's file:line.
PCs outside the executable are booked under their shared object (@libc.so.6).
`diff` prints, for each view, the rows whose sample counts moved most.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

ADDRESS = re.compile(r"0x[0-9a-f]{16}")


def read_profile(path):
    exe = None
    counts = collections.Counter()
    with open(path) as f:
        for line in f:
            if line.startswith("# exe "):
                exe = line[6:].strip()
                continue
            if line.startswith("#") or not line.strip():
                continue
            count, where = line.split()
            counts[where] += int(count)
    if exe is None:
        sys.exit(f"{path}: no '# exe' header")
    return exe, counts


def symbolize(exe, addresses):
    """Maps each hex offset to its inline frames, innermost first."""
    frames = {}
    if not addresses:
        return frames
    out = subprocess.run(["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
                         input="\n".join(addresses) + "\n", capture_output=True,
                         text=True, check=True).stdout.splitlines()
    current = None
    i = 0
    while i < len(out):
        line = out[i]
        if ADDRESS.fullmatch(line):
            # `-a` echoes each address; its frames follow as (function,
            # file:line) pairs.
            current = []
            frames[int(line, 16)] = current
            i += 1
            continue
        location = out[i + 1] if i + 1 < len(out) else "??:0"
        current.append((line, shorten(location)))
        i += 2
    return frames


def shorten(location):
    path, _, rest = location.partition(":")
    rest = rest.split(" ")[0]
    for marker in ("/src/", "/fabricbench/", "/include/c++/"):
        k = path.rfind(marker)
        if k >= 0:
            path = path[k + 1:]
            break
    else:
        path = os.path.basename(path)
    return f"{path}:{rest}"


def views(path):
    """Sample counts by function, by inlined function and by line."""
    exe, counts = read_profile(path)
    offsets = [w for w in counts if w.startswith("0x")]
    frames = symbolize(exe, offsets)
    by = {"function": collections.Counter(), "inlined function": collections.Counter(),
          "line": collections.Counter()}
    for where, n in counts.items():
        if not where.startswith("0x"):
            for view in by.values():
                view[where] += n
            continue
        chain = frames.get(int(where, 16)) or [("??", "??:0")]
        by["function"][chain[-1][0]] += n
        by["inlined function"][chain[0][0]] += n
        by["line"][chain[0][1]] += n
    return sum(counts.values()), by


def clip(name, width=110):
    return name if len(name) <= width else name[:width - 3] + "..."


def report(args):
    total, by = views(args.profile)
    print(f"{args.profile}: {total} samples")
    for title, view in by.items():
        print(f"\n== by {title} ==")
        for name, n in view.most_common(args.top):
            print(f"{n:9d} {100.0 * n / max(total, 1):6.2f}%  {clip(name)}")


def diff(args):
    total_a, by_a = views(args.before)
    total_b, by_b = views(args.after)
    print(f"before {args.before}: {total_a} samples; after {args.after}: {total_b} samples")
    for title in by_a:
        a, b = by_a[title], by_b[title]
        moved = sorted(set(a) | set(b), key=lambda k: -abs(b[k] - a[k]))[:args.top]
        print(f"\n== by {title} (before -> after, delta) ==")
        for name in moved:
            print(f"{a[name]:9d} -> {b[name]:9d} {b[name] - a[name]:+9d}  {clip(name)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("report")
    r.add_argument("profile")
    r.add_argument("--top", type=int, default=30)
    r.set_defaults(run=report)
    d = sub.add_parser("diff")
    d.add_argument("before")
    d.add_argument("after")
    d.add_argument("--top", type=int, default=30)
    d.set_defaults(run=diff)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
