#ifndef TRACLUS_COMMON_ATOMIC_FILE_H_
#define TRACLUS_COMMON_ATOMIC_FILE_H_

// WriteFileAtomically — the one write path of the on-disk artifacts (the
// persistent neighbor-cache files and the cluster snapshots). Content is
// streamed into a temp file whose name no other writer uses, then renamed
// over the target, so a reader sees either the old file or the complete new
// one, and concurrent writers of one path never clobber each other's temp
// file (the last rename wins; every rename installs a complete file).

#include <fstream>
#include <functional>
#include <string>

#include "common/status.h"

namespace traclus::common {

/// Writes `path` atomically: `write` fills a binary stream opened on a fresh
/// temp file (path + ".tmp.<pid>.<counter>"), which is then renamed onto
/// `path`. Any failure removes the temp file and returns an IOError that
/// names `kind` (e.g. "snapshot file") and carries the failing step's own
/// error — never the cleanup's.
Status WriteFileAtomically(const std::string& path, const std::string& kind,
                           const std::function<void(std::ofstream&)>& write);

}  // namespace traclus::common

#endif  // TRACLUS_COMMON_ATOMIC_FILE_H_
