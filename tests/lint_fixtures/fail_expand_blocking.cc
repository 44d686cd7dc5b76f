// lint-invariants fixture (MUST FAIL rule 3): the compact-segment
// expander reaches a blocking socket write through a helper — it
// would wedge the event loop that drives commitChunk. Not
// compiled — parsed by tools/lint_invariants.py --selftest.

void
sendFully(int fd, const unsigned char *buf, unsigned long len)
{
    while (len) {
        long n = ::send(fd, buf, len, 0);
        buf += n;
        len -= static_cast<unsigned long>(n);
    }
}

void
ackItem(int fd, unsigned long off)
{
    unsigned char frame[8] = {};
    sendFully(fd, frame, sizeof(frame)); // blocks mid-expansion
}

unsigned long
expandSegment(const unsigned char *data, unsigned long len)
{
    unsigned long off = 0;
    while (off < len) {
        ackItem(0, off);
        ++off;
    }
    return off;
}
