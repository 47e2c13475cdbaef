// Reader for the retired store.bin stream formats v1–v3.
//
// Serving and MappedStoreFile::Map read only the v4 layout
// (store/mapped_store.h). Files written by builds before it are
// streams, and this reader is the one place that still knows their
// layout. Its one production caller is `optselect upgrade <in> <out>`,
// which reads a legacy file and saves it as v4; the golden fixtures
// tests/data/store_v{1,2,3}.bin are its tests.

#ifndef OPTSELECT_STORE_LEGACY_STORE_H_
#define OPTSELECT_STORE_LEGACY_STORE_H_

#include <string>

#include "store/diversification_store.h"
#include "util/status.h"

namespace optselect {
namespace store {

/// Parses a v1, v2 or v3 stream file into a heap store. v1 files load
/// with version() == 0; v1/v2 entries load with empty plans (serving
/// compiles plans at start-up, store::CompilePlans in place). Saving
/// the result writes v4 with bit-identical content. kIoError when the
/// file cannot be read; kCorruption on a bad magic, an unknown format
/// version, a checksum mismatch, truncation, or a length field larger
/// than the bytes left.
util::Result<DiversificationStore> ReadLegacyStore(const std::string& path);

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_LEGACY_STORE_H_
