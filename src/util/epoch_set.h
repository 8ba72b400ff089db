/**
 * @file
 * A set of small non-negative ids (graph node ids) over one flat array
 * of epoch stamps: an id is a member while its stamp equals the
 * current epoch, so emptying the set is one increment. A thread_local
 * instance therefore serves any number of calls, on graphs of any
 * size, without clearing or allocating per call.
 */

#ifndef COCCO_UTIL_EPOCH_SET_H
#define COCCO_UTIL_EPOCH_SET_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cocco {

class EpochSet
{
  public:
    /**
     * Empty the set and make room for ids in [0, @p n). Stamps left by
     * earlier calls, on this graph or a larger one, belong to older
     * epochs and never read as members.
     */
    void
    clear(int n)
    {
        if (stamps_.size() < static_cast<size_t>(n))
            stamps_.resize(n, 0);
        if (++epoch_ == 0) {
            // Wrapped: a stamp from 2^32 epochs ago would read as new.
            std::fill(stamps_.begin(), stamps_.end(), 0);
            epoch_ = 1;
        }
    }

    bool contains(int v) const { return stamps_[v] == epoch_; }

    /** Add @p v; @return false when it was already a member. */
    bool
    insert(int v)
    {
        if (stamps_[v] == epoch_)
            return false;
        stamps_[v] = epoch_;
        return true;
    }

  private:
    std::vector<uint32_t> stamps_;
    uint32_t epoch_ = 0;
};

} // namespace cocco

#endif // COCCO_UTIL_EPOCH_SET_H
