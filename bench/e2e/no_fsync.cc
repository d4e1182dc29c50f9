// fsync and fdatasync that return without waiting for the disk.
//
// serve-durable measures the journal's work (framing, checksums, writes,
// commit barriers, duplicate lookups, recovery), not the fsync latency of
// whatever disk holds the checkout: on a shared host that latency swings
// from 0.2 ms to tens of ms with the neighbours' I/O, and at the
// workload's rate it decided whether the server kept up at all. Built as
// a shared library, it is preloaded into the serve-durable server; linked
// into the driver, it covers the traced run's in-process journal. The
// effect matches a WAL on tmpfs: records still reach the page cache, so
// they survive the SIGKILL the workload sends, and the program's own
// fsync counters (the wal.* metrics) still count every barrier.

#include <fcntl.h>

namespace {

/// One cheap syscall, as an fsync on tmpfs makes, keeping EBADF for a
/// closed descriptor.
int CheckDescriptor(int fd) { return fcntl(fd, F_GETFD) == -1 ? -1 : 0; }

}  // namespace

extern "C" int fsync(int fd) { return CheckDescriptor(fd); }
extern "C" int fdatasync(int fd) { return CheckDescriptor(fd); }
