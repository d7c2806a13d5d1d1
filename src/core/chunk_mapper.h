#ifndef CCUBE_CORE_CHUNK_MAPPER_H_
#define CCUBE_CORE_CHUNK_MAPPER_H_

/**
 * @file
 * Maps gradient buffer bytes ↔ collective chunks ↔ layers.
 *
 * C-Cube introduces no extra partitioning: it reuses the chunks the
 * collective already pipelines (paper §III-D). The mapper holds no
 * layout of its own — it is built from the byte geometry of the
 * sched::Program that runs (Program::geometry, or the copy a timed
 * run reports in ScheduleResult::geometry) and answers, for a layer
 * occupying a byte range of the one-shot buffer, which chunks gate
 * it. The Layer-Chunk Tables of Fig. 9, one per program part, are
 * derived from it.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/program.h"

namespace ccube {
namespace core {

/**
 * The Layer-Chunk Table (Fig. 9) of one program part. A part delivers
 * its own chunks in order (Observation #3), so per layer the table
 * holds how many of them must have arrived: one past the layer's last
 * chunk in this part, cumulative (non-decreasing) over layers.
 */
struct LayerChunkTable {
    int first_chunk = 0; ///< global id of the part's first chunk
    std::vector<std::int64_t> bounds; ///< per layer
};

/**
 * Chunk layout of one collective over a gradient buffer.
 */
class ChunkMapper
{
  public:
    /** @p geometry: a program's chunk byte ranges, by global chunk id. */
    explicit ChunkMapper(std::vector<sched::ChunkRange<double>> geometry);

    /** Number of global chunks. */
    int numChunks() const
    {
        return static_cast<int>(geometry_.size());
    }

    /** Byte range [lo, hi) of chunk @p chunk. */
    std::pair<double, double> chunkByteRange(int chunk) const;

    /**
     * Chunks gating layer @p layer given per-layer buffer bytes in
     * forward order (the buffer layout of Fig. 8). Layers with zero
     * bytes are gated by no chunk.
     */
    std::vector<int>
    chunksOfLayer(const std::vector<double>& layer_bytes,
                  int layer) const;

    /**
     * Time layer @p layer is fully reduced, given per-chunk ready
     * times: max over its gating chunks; layers with no parameters are
     * ready immediately (time 0).
     */
    double layerReadyTime(const std::vector<double>& layer_bytes,
                          int layer,
                          const std::vector<double>& chunk_ready) const;

    /** The Layer-Chunk Tables of Fig. 9, one per program part. */
    std::vector<LayerChunkTable>
    layerChunkTables(const std::vector<double>& layer_bytes) const;

  private:
    std::vector<sched::ChunkRange<double>> geometry_;
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_CHUNK_MAPPER_H_
