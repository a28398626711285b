#!/usr/bin/env python3
"""Symbolizes a sampler.c profile and prints self and inclusive shares.

    tools/sample_profile/symbolize.py sample_profile.out [--top 40] [--src src/]

Each sample is a leaf-first list of addresses. Addresses are mapped to their
ELF file through the /proc/self/maps copy at the end of the profile and
resolved with `addr2line -f -i -C`, so inlined frames count as functions of
their own. Return addresses are looked up one byte early, at the call. A
frame without line info (a stripped system library) is named
`<lib> (no symbols)`, e.g. `libm.so.6 (no symbols)`: addr2line would name it
after the nearest exported symbol, which there is usually unrelated code.

Three tables, each as a share of all samples:
  self       the innermost function of the leaf frame;
  inclusive  every function on the stack, once per sample;
  source     the first frame (from the leaf out) whose file lies under
             --src, so library code (std::map, malloc) is charged to the
             project source file that called it.
"""

import argparse
import collections
import os
import subprocess
import sys


def read_profile(path):
    samples, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                in_maps = True
            elif line.startswith("#"):
                continue
            elif in_maps:
                maps.append(line.split())
            elif line.strip():
                samples.append([int(a, 16) for a in line.split()])
    return samples, maps


def load_regions(maps):
    """Executable file mappings: (start, end, file offset, path, is_pie)."""
    regions = []
    for fields in maps:
        if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        path = fields[5]
        try:
            with open(path, "rb") as elf:
                header = elf.read(18)
            is_pie = header[:4] == b"\x7fELF" and header[16] == 3  # ET_DYN
        except OSError:
            continue
        regions.append((start, end, int(fields[2], 16), path, is_pie))
    return regions


def locate(regions, addr):
    for start, end, offset, path, is_pie in regions:
        if start <= addr < end:
            # PIE and shared objects: file-relative address (GNU ld keeps
            # p_vaddr == p_offset for the text segment); ET_EXEC: absolute.
            return path, (addr - start + offset) if is_pie else addr
    return None, addr


def symbolize(by_module):
    """{path: set(addr)} -> {(path, addr): [(function, file), ...]} innermost first."""
    frames = {}
    for path, addrs in by_module.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in addrs],
            capture_output=True, text=True, check=False).stdout.splitlines()
        current = None
        i = 0
        while i < len(out):
            line = out[i]
            if line.startswith("0x"):  # -a: each address heads its frames
                current = (path, int(line, 16))
                frames[current] = []
                i += 1
                continue
            if current is not None and i + 1 < len(out):
                func, where = line, out[i + 1].split(":")[0]
                if func == "??" or where == "??":
                    func = f"{os.path.basename(path)} (no symbols)"
                frames[current].append((func, where))
            i += 2
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--src", default="src/", help="path fragment marking project sources")
    args = ap.parse_args()

    samples, maps = read_profile(args.profile)
    if not samples:
        sys.exit("symbolize.py: no samples in " + args.profile)
    regions = load_regions(maps)
    located = []
    by_module = collections.defaultdict(set)
    for sample in samples:
        row = []
        for depth, addr in enumerate(sample):
            path, rel = locate(regions, addr if depth == 0 else addr - 1)
            row.append((path, rel))
            if path is not None:
                by_module[path].add(rel)
        located.append(row)
    frames = symbolize(by_module)

    self_count = collections.Counter()
    incl_count = collections.Counter()
    source_count = collections.Counter()
    for row in located:
        stack = []  # innermost first
        for path, rel in row:
            stack.extend(frames.get((path, rel)) or [(f"?? ({os.path.basename(path or '?')})", "?")])
        self_count[stack[0][0]] += 1
        for func in {f for f, _ in stack}:
            incl_count[func] += 1
        own = next((where for _, where in stack if args.src in where), None)
        source_count[own[own.find(args.src):] if own else "(outside " + args.src + ")"] += 1

    total = len(samples)
    print(f"{total} samples")
    for title, counter in (("self", self_count), ("inclusive", incl_count),
                           ("source (first frame under " + args.src + ")", source_count)):
        print(f"\n== {title} ==")
        for name, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}%  {name[:160]}")


if __name__ == "__main__":
    main()
