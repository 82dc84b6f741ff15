/**
 * @file
 * Tests of the memory substrate: main memory, the direct-mapped cache
 * timing model (64 KB / 16-byte lines / 14-cycle miss), and the
 * composed hierarchy with the instruction-buffer path. The written-
 * extent walks (snapshot, clear, kernel data images, the lockstep
 * copy and compare) are checked against the dense whole-memory scans
 * they replaced.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "faults/fault_injector.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/lockstep.hh"
#include "memory/direct_mapped_cache.hh"
#include "memory/main_memory.hh"
#include "memory/memory_system.hh"

namespace mtfpu::memory
{
namespace
{

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem(1024);
    mem.write64(0, 0xDEADBEEFCAFEF00DULL);
    mem.write64(1016, 42);
    EXPECT_EQ(mem.read64(0), 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(mem.read64(1016), 42u);
    EXPECT_EQ(mem.read64(8), 0u);
}

TEST(MainMemory, DoubleAccessors)
{
    MainMemory mem(256);
    mem.writeDouble(16, 3.25);
    EXPECT_DOUBLE_EQ(mem.readDouble(16), 3.25);
}

TEST(MainMemory, FaultsOnMisalignedAndOutOfRange)
{
    MainMemory mem(64);
    EXPECT_THROW(mem.read64(4), FatalError);
    EXPECT_THROW(mem.write64(3, 0), FatalError);
    EXPECT_THROW(mem.read64(64), FatalError);
}

TEST(MainMemory, Clear)
{
    MainMemory mem(64);
    mem.write64(0, 7);
    mem.clear();
    EXPECT_EQ(mem.read64(0), 0u);
}

TEST(MainMemory, WrittenExtentCoversEveryWrite)
{
    MainMemory mem(1 << 20);
    EXPECT_EQ(mem.writtenBegin(), mem.size());
    EXPECT_EQ(mem.writtenEnd(), 0u);
    mem.write64(4096, 1);
    mem.write64(512, 0); // a zero store still widens the extent
    EXPECT_EQ(mem.writtenBegin(), 512u);
    EXPECT_EQ(mem.writtenEnd(), 4104u);
    mem.clear();
    EXPECT_EQ(mem.writtenBegin(), mem.size());
    EXPECT_EQ(mem.writtenEnd(), 0u);
}

TEST(MainMemory, EdgeWordsSurviveSaveRestoreAndClear)
{
    // The first and last words of memory bound the written extent;
    // an off-by-one at either end would drop them from a snapshot.
    MainMemory mem(1 << 20);
    const uint64_t top = mem.size() - 8;
    mem.write64(0, 0x1111222233334444ULL);
    mem.write64(top, 0x5555666677778888ULL);

    ByteWriter out;
    mem.saveState(out);
    MainMemory restored(1 << 20);
    restored.write64(4096, 9); // stale word the restore must zero
    ByteReader in(out.data());
    restored.restoreState(in);
    EXPECT_EQ(restored.read64(0), 0x1111222233334444ULL);
    EXPECT_EQ(restored.read64(top), 0x5555666677778888ULL);
    EXPECT_EQ(restored.read64(4096), 0u);

    // Saving the restored memory reproduces the same bytes.
    ByteWriter again;
    restored.saveState(again);
    EXPECT_EQ(again.data(), out.data());

    restored.clear();
    EXPECT_EQ(restored.read64(0), 0u);
    EXPECT_EQ(restored.read64(top), 0u);
    ByteWriter empty;
    restored.saveState(empty);
    ByteWriter fresh;
    MainMemory(1 << 20).saveState(fresh);
    EXPECT_EQ(empty.data(), fresh.data());
}

/** The dense image scan memImage used before the written extent:
 *  every word of a fresh memory, in address order. */
std::vector<std::pair<uint64_t, uint64_t>>
denseImage(const kernels::Kernel &kernel, size_t mem_bytes)
{
    MainMemory scratch(mem_bytes);
    kernel.init(scratch);
    std::vector<std::pair<uint64_t, uint64_t>> image;
    for (uint64_t addr = 0; addr < scratch.size(); addr += 8) {
        const uint64_t word = scratch.read64(addr);
        if (word != 0)
            image.emplace_back(addr, word);
    }
    return image;
}

TEST(MainMemory, KernelImagesMatchDenseScan)
{
    std::vector<kernels::Kernel> all;
    for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
        all.push_back(kernels::livermore::make(id, false));
        if (kernels::livermore::hasVectorVariant(id))
            all.push_back(kernels::livermore::make(id, true));
    }
    all.push_back(kernels::linpack::make(false));
    all.push_back(kernels::linpack::make(true));

    const size_t mem_bytes = MemoryConfig{}.memBytes;
    for (const kernels::Kernel &k : all) {
        SCOPED_TRACE(k.name + "/" + k.variant);
        const auto image = kernels::memImage(k, mem_bytes);
        EXPECT_FALSE(image.empty());
        EXPECT_EQ(image, denseImage(k, mem_bytes));
    }
}

TEST(MainMemory, LockstepSeesDivergenceInTopWord)
{
    // A flip in the last word of memory, far above anything the
    // kernel writes: the final compare must still cover it.
    const kernels::Kernel kernel = kernels::livermore::make(1, true);
    machine::Machine m;
    m.loadProgram(kernel.program);
    kernel.init(m.mem());
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);
    const uint64_t top_word = m.mem().size() / 8 - 1;
    faults::FaultInjector injector(faults::FaultPlan(
        {faults::Fault{50, faults::FaultSite::MemWord, top_word, 1}}));
    m.setHook(&injector);

    EXPECT_THROW(m.run(), SimError);
    ASSERT_TRUE(checker.diverged());
    const machine::DivergenceReport &report = checker.report();
    EXPECT_EQ(report.where, "final-state");
    ASSERT_EQ(report.deltas.size(), 1u);
    EXPECT_EQ(report.deltas[0].what, "mem[0x00000000003ffff8]");
    EXPECT_EQ(report.deltas[0].machine, 1u);
    EXPECT_EQ(report.deltas[0].interp, 0u);
}

TEST(Cache, ColdMissThenHit)
{
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    EXPECT_EQ(c.access(0x1000, false), 14u);
    EXPECT_EQ(c.access(0x1000, false), 0u);
    // Same 16-byte line.
    EXPECT_EQ(c.access(0x1008, false), 0u);
    // Next line misses.
    EXPECT_EQ(c.access(0x1010, false), 14u);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 64 KB direct-mapped: addresses 64 KB apart conflict.
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    EXPECT_EQ(c.access(0x0, false), 14u);
    EXPECT_EQ(c.access(0x10000, false), 14u); // evicts
    EXPECT_EQ(c.access(0x0, false), 14u);     // miss again
}

TEST(Cache, WriteAllocatePolicy)
{
    DirectMappedCache alloc(CacheConfig{1024, 16, 14, true});
    EXPECT_EQ(alloc.access(0x40, true), 14u);
    EXPECT_EQ(alloc.access(0x40, false), 0u); // allocated by the write

    DirectMappedCache noalloc(CacheConfig{1024, 16, 14, false});
    EXPECT_EQ(noalloc.access(0x40, true), 14u);
    EXPECT_EQ(noalloc.access(0x40, false), 14u); // not allocated
}

TEST(Cache, FlushInvalidates)
{
    DirectMappedCache c(CacheConfig{1024, 16, 5, true});
    c.access(0x0, false);
    EXPECT_TRUE(c.probe(0x0));
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_EQ(c.access(0x0, false), 5u);
}

TEST(Cache, StatsAndMissRatio)
{
    DirectMappedCache c(CacheConfig{1024, 16, 5, true});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(16, false);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(DirectMappedCache(CacheConfig{1000, 16, 14, true}),
                 FatalError);
    EXPECT_THROW(DirectMappedCache(CacheConfig{16, 64, 14, true}),
                 FatalError);
}

TEST(Cache, SequentialStreamMissesOncePerLine)
{
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    unsigned misses = 0;
    for (uint64_t addr = 0; addr < 1024; addr += 8) {
        if (c.access(addr, false) != 0)
            ++misses;
    }
    // 1024 bytes / 16-byte lines = 64 lines: two 8-byte words per line.
    EXPECT_EQ(misses, 64u);
}

TEST(MemorySystem, Figure1Defaults)
{
    MemorySystem ms;
    EXPECT_EQ(ms.config().dataCache.sizeBytes, 64u * 1024);
    EXPECT_EQ(ms.config().dataCache.lineBytes, 16u);
    EXPECT_EQ(ms.config().dataCache.missPenalty, 14u);
    EXPECT_EQ(ms.config().instrBuffer.sizeBytes, 2u * 1024);
}

TEST(MemorySystem, InstrFetchTwoLevelPenalty)
{
    MemorySystem ms;
    // Cold: miss in both the buffer and the external cache.
    const unsigned cold = ms.instrFetch(0);
    EXPECT_EQ(cold, ms.config().instrBuffer.missPenalty +
                        ms.config().instrCache.missPenalty);
    EXPECT_EQ(ms.instrFetch(0), 0u); // now buffered
}

TEST(MemorySystem, InstrBufferCapacityEviction)
{
    MemorySystem ms;
    // Walk 4 KB of instructions: wraps the 2 KB buffer but stays in
    // the 64 KB external cache, so re-fetch costs only the buffer
    // refill penalty.
    for (uint64_t a = 0; a < 4096; a += 4)
        ms.instrFetch(a);
    const unsigned refill = ms.instrFetch(0);
    EXPECT_EQ(refill, ms.config().instrBuffer.missPenalty);
}

TEST(MemorySystem, IdealMemoryAblation)
{
    MemoryConfig cfg;
    cfg.modelCaches = false;
    MemorySystem ms(cfg);
    EXPECT_EQ(ms.dataAccess(0x5000, false), 0u);
    EXPECT_EQ(ms.instrFetch(0x5000), 0u);
}

TEST(MemorySystem, FlushAllRestoresColdState)
{
    MemorySystem ms;
    ms.dataAccess(0x100, false);
    EXPECT_EQ(ms.dataAccess(0x100, false), 0u);
    ms.flushAll();
    EXPECT_EQ(ms.dataAccess(0x100, false),
              ms.config().dataCache.missPenalty);
}

} // anonymous namespace
} // namespace mtfpu::memory
