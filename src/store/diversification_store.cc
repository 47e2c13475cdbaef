#include "store/diversification_store.h"

#include "store/mapped_store.h"
#include "util/strings.h"

namespace optselect {
namespace store {
namespace {

// A plan is valid for its entry iff its blocks are internally
// consistent and its probability copy matches the entry's mined
// distribution exactly (the utilities/weighted/spec_order blocks are
// all functions of it). Anything else is a stale compile.
bool PlanMatchesEntry(const QueryPlan& plan, const StoredEntry& entry) {
  if (!plan.SizesConsistent()) return false;
  if (plan.num_specializations() != entry.specializations.size()) {
    return false;
  }
  for (size_t j = 0; j < entry.specializations.size(); ++j) {
    if (plan.probability[j] != entry.specializations[j].probability) {
      return false;
    }
  }
  return true;
}

}  // namespace

util::Status DiversificationStore::Put(StoredEntry entry) {
  if (entry.specializations.size() < 2) {
    return util::Status::InvalidArgument(
        "entry for '" + entry.query + "' has " +
        std::to_string(entry.specializations.size()) +
        " specializations; an ambiguous query needs at least 2");
  }
  // Drop, rather than store, a plan that no longer matches the mined
  // content — serving falls back to per-request computation, which is
  // slower but always correct.
  if (!entry.plan.empty() && !PlanMatchesEntry(entry.plan, entry)) {
    entry.plan = QueryPlan();
  }
  // Keys are normalized so serving-time lookups are insensitive to
  // casing/spacing; entry.query keeps the original string.
  std::string key = util::NormalizeQueryText(entry.query);
  entries_[std::move(key)] = std::move(entry);
  return util::Status::Ok();
}

const StoredEntry* DiversificationStore::Find(std::string_view query) const {
  auto it = entries_.find(util::NormalizeQueryText(query));
  return it == entries_.end() ? nullptr : &it->second;
}

bool DiversificationStore::Remove(std::string_view query) {
  return entries_.erase(util::NormalizeQueryText(query)) > 0;
}

bool StoredEntriesEqual(const StoredEntry& a, const StoredEntry& b) {
  if (a.query != b.query ||
      a.specializations.size() != b.specializations.size()) {
    return false;
  }
  for (size_t s = 0; s < a.specializations.size(); ++s) {
    const StoredSpecialization& sa = a.specializations[s];
    const StoredSpecialization& sb = b.specializations[s];
    if (sa.query != sb.query || sa.probability != sb.probability ||
        sa.surrogates.size() != sb.surrogates.size()) {
      return false;
    }
    for (size_t v = 0; v < sa.surrogates.size(); ++v) {
      if (sa.surrogates[v].entries() != sb.surrogates[v].entries()) {
        return false;
      }
    }
  }
  return true;
}

std::vector<core::SpecializationProfile> DiversificationStore::ToProfiles(
    const StoredEntry& entry) {
  std::vector<core::SpecializationProfile> profiles;
  profiles.reserve(entry.specializations.size());
  for (const StoredSpecialization& sp : entry.specializations) {
    core::SpecializationProfile p;
    p.query = sp.query;
    p.probability = sp.probability;
    p.results = sp.surrogates;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

uint64_t DiversificationStore::SurrogatePayloadBytes() const {
  uint64_t bytes = 0;
  for (const auto& [query, entry] : entries_) {
    for (const StoredSpecialization& sp : entry.specializations) {
      for (const text::TermVector& v : sp.surrogates) {
        bytes += v.entries().size() *
                 (sizeof(text::TermId) + sizeof(double));
      }
    }
  }
  return bytes;
}

util::Status DiversificationStore::Save(const std::string& path) const {
  // The on-disk format is v4 (store/mapped_store.h): flat, checksummed,
  // mmap-able.
  return MappedStoreFile::WriteV4(*this, path);
}

}  // namespace store
}  // namespace optselect
