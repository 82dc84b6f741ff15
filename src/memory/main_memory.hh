/**
 * @file
 * Flat byte-addressed main memory with 64-bit accessors. The
 * MultiTitan's data paths are 64 bits wide; all FPU loads and stores
 * move aligned 64-bit words.
 *
 * A memory costs what a program writes, not its configured size: the
 * word array is a lazily mapped anonymous region (untouched pages
 * read as zero and are never committed), and write64 keeps the
 * extent of written words so whole-memory walks (snapshots, clear,
 * data images, lockstep compares) visit only that extent.
 */

#ifndef MTFPU_MEMORY_MAIN_MEMORY_HH
#define MTFPU_MEMORY_MAIN_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytestream.hh"
#include "common/log.hh"

namespace mtfpu::memory
{

/** Simple flat memory; addresses are byte addresses. */
class MainMemory
{
  public:
    /** Create a memory of @p size bytes (default 4 MB), all zero.
     *  Throws SimError(MemRange) when the region cannot be mapped. */
    explicit MainMemory(size_t size = 4u << 20);
    ~MainMemory();

    MainMemory(MainMemory &&other) noexcept;
    MainMemory &operator=(MainMemory &&other) noexcept;

    /** Memory size in bytes (data_ holds 64-bit words). */
    size_t size() const { return words_ * 8; }

    /**
     * Byte range [writtenBegin(), writtenEnd()) covering every word
     * written since construction or the last clear(); every word
     * outside it is zero. An unwritten memory reports begin == size()
     * and end == 0, so two extents merge under min/max.
     */
    uint64_t writtenBegin() const { return lo_ * 8; }
    uint64_t writtenEnd() const { return hi_ * 8; }

    // read64/write64 are inline: they run once per simulated load or
    // store, and the bounds check folds into the word-index shift.

    /** Read an aligned 64-bit word; fatal() on misalignment/range. */
    uint64_t
    read64(uint64_t addr) const
    {
        check(addr);
        return data_[addr / 8];
    }

    /** Write an aligned 64-bit word; fatal() on misalignment/range. */
    void
    write64(uint64_t addr, uint64_t value)
    {
        check(addr);
        const uint64_t word = addr / 8;
        data_[word] = value;
        // Stores into the extent (the common case) take neither
        // branch and write nothing besides the word.
        if (word < lo_)
            lo_ = word;
        if (word >= hi_)
            hi_ = word + 1;
    }

    /** Convenience: read a double at @p addr. */
    double readDouble(uint64_t addr) const;

    /** Convenience: write a double at @p addr. */
    void writeDouble(uint64_t addr, double value);

    /** Zero all of memory (only the written extent is touched). */
    void clear();

    /** Serialize contents sparsely (only nonzero words are stored). */
    void saveState(ByteWriter &out) const;

    /** Restore state saved by saveState(); sizes must match. */
    void restoreState(ByteReader &in);

  private:
    void
    check(uint64_t addr) const
    {
        if (addr % 8 != 0)
            fatal(ErrCode::MemAlign,
                  "MainMemory: unaligned 64-bit access at " +
                      std::to_string(addr));
        if (addr / 8 >= words_)
            fatal(ErrCode::MemRange,
                  "MainMemory: access past end of memory at " +
                      std::to_string(addr) + " (size " +
                      std::to_string(words_ * 8) + ")");
    }

    uint64_t *data_ = nullptr; // mmap'd word array; null when empty
    size_t words_ = 0;
    size_t lo_ = 0; // written extent [lo_, hi_) in words;
    size_t hi_ = 0; // lo_ == words_, hi_ == 0 when nothing is written
};

} // namespace mtfpu::memory

#endif // MTFPU_MEMORY_MAIN_MEMORY_HH
