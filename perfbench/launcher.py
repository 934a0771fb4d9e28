"""Small process that starts the benchmark's CLI children for ``run.py``.

Usage: python3 perfbench/launcher.py FD   (FD: a SOCK_SEQPACKET Unix socket)

On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
memory image it was exec'ed from.  ``run.py`` parses CLI outputs of up
to ~20 MB, so a child it started itself would report at least its own
peak.  This launcher is started once, before ``run.py`` holds any output,
never touches output bytes, and so keeps every child's peak RSS its own.

Protocol: each request is one JSON message ``{"cmd": [...], "timeout": s}``
carrying two file descriptors, the write ends of the child's stdout and
stderr pipes.  The launcher starts the command on them, closes its copies,
kills the child after ``timeout`` seconds, reaps it with ``wait4`` and
answers with one JSON message: exit code, wall and CPU seconds, peak RSS
in KiB and whether it was killed.  The launcher exits when ``run.py``
closes the socket.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time


def run(request: dict, stdout_fd: int, stderr_fd: int) -> dict:
    started = time.perf_counter()
    try:
        proc = subprocess.Popen(request["cmd"], stdout=stdout_fd, stderr=stderr_fd)
    finally:
        os.close(stdout_fd)
        os.close(stderr_fd)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(request["timeout"], kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def serve(sock: socket.socket):
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        reply = run(json.loads(message), *fds)
        sock.send(json.dumps(reply).encode())


if __name__ == "__main__":
    with socket.socket(fileno=int(sys.argv[1])) as channel:
        serve(channel)
