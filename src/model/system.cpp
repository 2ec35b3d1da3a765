#include "model/system.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace mmr {

ServerId SystemModel::add_server(Server server) {
  MMR_CHECK_MSG(!finalized_, "add_server after finalize");
  servers_.push_back(server);
  return static_cast<ServerId>(servers_.size() - 1);
}

ObjectId SystemModel::add_object(MediaObject object) {
  MMR_CHECK_MSG(!finalized_, "add_object after finalize");
  objects_.push_back(object);
  return static_cast<ObjectId>(objects_.size() - 1);
}

PageId SystemModel::add_page(Page page) {
  MMR_CHECK_MSG(!finalized_, "add_page after finalize");
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

void SystemModel::finalize() {
  MMR_CHECK_MSG(!finalized_, "finalize called twice");
  MMR_CHECK_MSG(!servers_.empty(), "model needs at least one server");

  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const Server& s = servers_[i];
    MMR_CHECK_MSG(s.local_rate > 0, "server " << i << " local_rate <= 0");
    MMR_CHECK_MSG(s.repo_rate > 0, "server " << i << " repo_rate <= 0");
    MMR_CHECK_MSG(s.ovhd_local >= 0, "server " << i << " ovhd_local < 0");
    MMR_CHECK_MSG(s.ovhd_repo >= 0, "server " << i << " ovhd_repo < 0");
    MMR_CHECK_MSG(s.proc_capacity > 0, "server " << i << " proc_capacity <= 0");
  }
  MMR_CHECK_MSG(repository_.proc_capacity > 0, "repository capacity <= 0");

  pages_on_server_.assign(servers_.size(), {});
  page_pos_in_host_.clear();
  page_pos_in_host_.reserve(pages_.size());
  objects_referenced_.assign(servers_.size(), {});
  html_bytes_on_server_.assign(servers_.size(), 0);
  full_replication_bytes_.assign(servers_.size(), 0);
  page_request_rate_.assign(servers_.size(), 0.0);

  // stamp[k] == t marks object k as seen under tag t: page j + 1 while page
  // j's references are checked for duplicates, then server i + 1 while
  // server i's distinct objects are collected. Flat arrays instead of one
  // hash set per page and per server keep finalize() linear in references.
  std::vector<std::uint32_t> stamp(objects_.size(), 0);

  for (std::size_t j = 0; j < pages_.size(); ++j) {
    const Page& p = pages_[j];
    const auto page_id = static_cast<PageId>(j);
    MMR_CHECK_MSG(p.host < servers_.size(),
                  "page " << j << " has invalid host " << p.host);
    MMR_CHECK_MSG(p.frequency >= 0, "page " << j << " frequency < 0");
    MMR_CHECK_MSG(p.optional_scale >= 0, "page " << j << " optional_scale < 0");
    MMR_CHECK_MSG(p.html_bytes > 0, "page " << j << " html_bytes == 0");

    page_pos_in_host_.push_back(
        static_cast<std::uint32_t>(pages_on_server_[p.host].size()));
    pages_on_server_[p.host].push_back(page_id);
    html_bytes_on_server_[p.host] += p.html_bytes;
    page_request_rate_[p.host] += p.frequency;

    const auto tag = static_cast<std::uint32_t>(j + 1);
    for (const ObjectId k : p.compulsory) {
      MMR_CHECK_MSG(k < objects_.size(),
                    "page " << j << " references invalid object " << k);
      MMR_CHECK_MSG(stamp[k] != tag,
                    "page " << j << " references object " << k << " twice");
      stamp[k] = tag;
    }
    for (const OptionalRef& ref : p.optional) {
      MMR_CHECK_MSG(ref.object < objects_.size(),
                    "page " << j << " references invalid object "
                            << ref.object);
      MMR_CHECK_MSG(ref.probability > 0 && ref.probability <= 1,
                    "page " << j << " optional probability out of (0,1]: "
                            << ref.probability);
      MMR_CHECK_MSG(stamp[ref.object] != tag,
                    "page " << j << " references object " << ref.object
                            << " both compulsorily and optionally");
      stamp[ref.object] = tag;
    }
  }

  for (std::size_t k = 0; k < objects_.size(); ++k) {
    MMR_CHECK_MSG(objects_[k].bytes > 0, "object " << k << " has zero size");
  }

  comp_offset_.assign(pages_.size() + 1, 0);
  opt_offset_.assign(pages_.size() + 1, 0);
  for (std::size_t j = 0; j < pages_.size(); ++j) {
    comp_offset_[j + 1] =
        comp_offset_[j] + static_cast<std::uint32_t>(pages_[j].compulsory.size());
    opt_offset_[j + 1] =
        opt_offset_[j] + static_cast<std::uint32_t>(pages_[j].optional.size());
  }

  // One server at a time: its distinct objects in ascending id order (the
  // ranks), every slot's rank and the server's block of the reference CSR.
  // rank_of is a flat object -> value map, valid for the current server
  // only: it counts each object's references while they are collected, then
  // holds its rank (O(1) in every solver inner loop after). Refs land
  // grouped by (server, object rank), and within a rank in page order with
  // compulsory before optional, so algorithms iterate them deterministically.
  std::fill(stamp.begin(), stamp.end(), 0);
  std::vector<std::uint32_t> rank_of(objects_.size());
  std::vector<ObjectId> distinct;
  std::vector<std::uint64_t> cursor;  // per rank: next free CSR position
  rank_base_.assign(servers_.size() + 1, 0);
  ref_offset_.assign(1, 0);
  refs_flat_.resize(std::uint64_t{comp_offset_.back()} + opt_offset_.back());
  comp_rank_.resize(comp_offset_.back());
  opt_rank_.resize(opt_offset_.back());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const auto tag = static_cast<std::uint32_t>(i + 1);
    const std::vector<PageId>& hosted = pages_on_server_[i];
    distinct.clear();
    auto collect = [&](ObjectId k) {
      if (stamp[k] != tag) {
        stamp[k] = tag;
        rank_of[k] = 0;
        distinct.push_back(k);
      }
      ++rank_of[k];
    };
    for (const PageId j : hosted) {
      for (const ObjectId k : pages_[j].compulsory) collect(k);
      for (const OptionalRef& ref : pages_[j].optional) collect(ref.object);
    }
    std::sort(distinct.begin(), distinct.end());
    objects_referenced_[i].assign(distinct.begin(), distinct.end());

    std::uint64_t bytes = html_bytes_on_server_[i];
    cursor.resize(distinct.size());
    for (std::uint32_t r = 0; r < distinct.size(); ++r) {
      const ObjectId k = distinct[r];
      cursor[r] = ref_offset_.back();
      ref_offset_.push_back(cursor[r] + rank_of[k]);
      rank_of[k] = r;
      bytes += objects_[k].bytes;
    }
    full_replication_bytes_[i] = bytes;
    rank_base_[i + 1] = rank_base_[i] + distinct.size();

    for (const PageId j : hosted) {
      const Page& p = pages_[j];
      for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
        const std::uint32_t r = rank_of[p.compulsory[idx]];
        comp_rank_[comp_offset_[j] + idx] = r;
        refs_flat_[cursor[r]++] = {j, true, idx};
      }
      for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
        const std::uint32_t r = rank_of[p.optional[idx].object];
        opt_rank_[opt_offset_[j] + idx] = r;
        refs_flat_[cursor[r]++] = {j, false, idx};
      }
    }
  }
  ref_offset_.shrink_to_fit();  // the model is long-lived; drop the slack

  // The PARTITION visit order: decreasing size, ties by slot index. That is
  // a total order, so sorting (size, slot) pairs gathered once per page is
  // exact and keeps the object-table loads out of the comparisons.
  comp_order_.resize(comp_offset_.back());
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  for (std::size_t j = 0; j < pages_.size(); ++j) {
    const Page& p = pages_[j];
    keyed.clear();
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      keyed.emplace_back(objects_[p.compulsory[idx]].bytes, idx);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::uint32_t* order = comp_order_.data() + comp_offset_[j];
    for (std::uint32_t x = 0; x < keyed.size(); ++x) order[x] = keyed[x].second;
  }
  build_network_caches();

  // Byte-account the finalized containers (docs/OBSERVABILITY.md). Element
  // counts — not capacities — so the charges and gauges are a pure function
  // of the instance, bit-identical at any thread count. The estimators are
  // the single source of truth: pre-flight estimates equal charged bytes.
  const std::uint64_t csr_bytes = estimate_csr_bytes_for(
      pages_.size(), comp_offset_.back(), opt_offset_.back());
  const std::uint64_t index_bytes =
      estimate_index_bytes_for(servers_.size(), pages_.size(),
                               rank_base_.back(), refs_flat_.size());
  mem_csr_charge_.reset(memacct::Category::kModelCsr, csr_bytes);
  mem_index_charge_.reset(memacct::Category::kModelIndex, index_bytes);
  MMR_GAUGE("memory.model.csr", static_cast<double>(csr_bytes));
  MMR_GAUGE("memory.model.index", static_cast<double>(index_bytes));

  finalized_ = true;
}

void SystemModel::build_network_caches() {
  comp_local_xfer_.resize(comp_offset_.back());
  comp_remote_xfer_.resize(comp_offset_.back());
  opt_local_time_.resize(opt_offset_.back());
  opt_remote_time_.resize(opt_offset_.back());
  opt_beneficial_.resize(opt_offset_.back());
  page_base_local_.resize(pages_.size());
  for (std::size_t j = 0; j < pages_.size(); ++j) {
    const Page& p = pages_[j];
    const Server& s = servers_[p.host];
    page_base_local_[j] =
        s.ovhd_local + transfer_seconds(p.html_bytes, s.local_rate);
    const std::uint32_t c0 = comp_offset_[j];
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      const std::uint64_t bytes = objects_[p.compulsory[idx]].bytes;
      comp_local_xfer_[c0 + idx] = transfer_seconds(bytes, s.local_rate);
      comp_remote_xfer_[c0 + idx] = transfer_seconds(bytes, s.repo_rate);
    }
    const std::uint32_t o0 = opt_offset_[j];
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      const std::uint64_t bytes = objects_[p.optional[idx].object].bytes;
      const double t_local =
          s.ovhd_local + transfer_seconds(bytes, s.local_rate);
      const double t_remote =
          s.ovhd_repo + transfer_seconds(bytes, s.repo_rate);
      opt_local_time_[o0 + idx] = t_local;
      opt_remote_time_[o0 + idx] = t_remote;
      opt_beneficial_[o0 + idx] = t_local <= t_remote ? 1 : 0;
    }
  }
}

void SystemModel::refresh_network_caches() {
  check_finalized();
  build_network_caches();
}

void SystemModel::check_finalized() const {
  MMR_CHECK_MSG(finalized_, "SystemModel::finalize() has not been called");
}

const std::vector<PageId>& SystemModel::pages_on_server(ServerId i) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  return pages_on_server_[i];
}

RefSpan SystemModel::object_refs_on_server(ServerId i, ObjectId k) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  const std::uint32_t rank = object_rank_on_server(i, k);
  if (rank == kInvalidRank) return {};
  return refs_at_rank(i, rank);
}

std::uint32_t SystemModel::object_rank_on_server(ServerId i,
                                                 ObjectId k) const {
  const auto& list = objects_referenced_[i];
  const auto it = std::lower_bound(list.begin(), list.end(), k);
  if (it == list.end() || *it != k) return kInvalidRank;
  return static_cast<std::uint32_t>(it - list.begin());
}

std::uint64_t SystemModel::estimate_csr_bytes_for(std::uint64_t pages,
                                                  std::uint64_t comp_slots,
                                                  std::uint64_t opt_slots) {
  // comp_offset_/opt_offset_ (pages+1 each), comp_order_ + comp_rank_
  // (comp_slots each), opt_rank_ (opt_slots) — uint32; the four per-slot
  // transfer-time arrays + page_base_local_ — double; opt_beneficial_ — u8.
  return (2 * (pages + 1) + 2 * comp_slots + opt_slots) *
             sizeof(std::uint32_t) +
         (2 * comp_slots + 2 * opt_slots + pages) * sizeof(double) +
         opt_slots * sizeof(std::uint8_t);
}

std::uint64_t SystemModel::estimate_index_bytes_for(std::uint64_t servers,
                                                    std::uint64_t pages,
                                                    std::uint64_t ref_ranks,
                                                    std::uint64_t refs) {
  // html_bytes_on_server_ + full_replication_bytes_ (u64) and
  // page_request_rate_ (double) per server; pages_on_server_ ids +
  // page_pos_in_host_; objects_referenced_ ids; rank_base_ / ref_offset_
  // prefix sums; refs_flat_ entries.
  return servers * (2 * sizeof(std::uint64_t) + sizeof(double)) +
         pages * (sizeof(PageId) + sizeof(std::uint32_t)) +
         ref_ranks * sizeof(ObjectId) +
         (servers + 1) * sizeof(std::uint64_t) +
         (ref_ranks + 1) * sizeof(std::uint64_t) +
         refs * sizeof(PageObjectRef);
}

const std::vector<ObjectId>& SystemModel::objects_referenced(
    ServerId i) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  return objects_referenced_[i];
}

std::uint64_t SystemModel::html_bytes_on_server(ServerId i) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  return html_bytes_on_server_[i];
}

std::uint64_t SystemModel::full_replication_bytes(ServerId i) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  return full_replication_bytes_[i];
}

double SystemModel::page_request_rate(ServerId i) const {
  check_finalized();
  MMR_CHECK(i < servers_.size());
  return page_request_rate_[i];
}

void SystemModel::set_page_frequency(PageId j, double frequency) {
  check_finalized();
  MMR_CHECK(j < pages_.size());
  MMR_CHECK_MSG(frequency >= 0, "frequency must be nonnegative");
  Page& p = pages_[j];
  page_request_rate_[p.host] += frequency - p.frequency;
  p.frequency = frequency;
}

}  // namespace mmr
