"""Stand-in entailment filter for ``build-gt --filter-cmd``.

Reads one JSON object per line on stdin and answers ``yes`` or ``no`` per
line from a hash of the object's ``chunk_id`` alone, so the decision is
reproducible and the output checks can apply the same rule. Stdlib only.
"""

import hashlib
import json
import sys

# about 70% of chunks are accepted
ACCEPT_BELOW = 179


def accepts(chunk_id: str) -> bool:
    return hashlib.sha256(chunk_id.encode("utf-8")).digest()[0] < ACCEPT_BELOW


def main() -> None:
    for line in sys.stdin:
        reply = "yes" if accepts(json.loads(line)["chunk_id"]) else "no"
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
