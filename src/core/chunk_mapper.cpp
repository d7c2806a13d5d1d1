#include "core/chunk_mapper.h"

#include <algorithm>

#include "util/logging.h"

namespace ccube {
namespace core {

ChunkMapper::ChunkMapper(std::vector<sched::ChunkRange<double>> geometry)
    : geometry_(std::move(geometry))
{
    CCUBE_CHECK(!geometry_.empty(), "mapper needs at least one chunk");
}

std::pair<double, double>
ChunkMapper::chunkByteRange(int chunk) const
{
    CCUBE_CHECK(chunk >= 0 && chunk < numChunks(),
                "bad chunk " << chunk);
    const sched::ChunkRange<double>& range =
        geometry_[static_cast<std::size_t>(chunk)];
    return {range.begin, range.end};
}

std::vector<int>
ChunkMapper::chunksOfLayer(const std::vector<double>& layer_bytes,
                           int layer) const
{
    CCUBE_CHECK(layer >= 0 &&
                    layer < static_cast<int>(layer_bytes.size()),
                "bad layer index " << layer);
    double lo = 0.0;
    for (int l = 0; l < layer; ++l)
        lo += layer_bytes[static_cast<std::size_t>(l)];
    const double hi = lo + layer_bytes[static_cast<std::size_t>(layer)];
    CCUBE_CHECK(lo <= hi, "inverted byte range");
    std::vector<int> chunks;
    if (lo == hi)
        return chunks;
    for (int c = 0; c < numChunks(); ++c) {
        const sched::ChunkRange<double>& range =
            geometry_[static_cast<std::size_t>(c)];
        if (range.begin < hi && lo < range.end)
            chunks.push_back(c);
    }
    return chunks;
}

double
ChunkMapper::layerReadyTime(const std::vector<double>& layer_bytes,
                            int layer,
                            const std::vector<double>& chunk_ready) const
{
    CCUBE_CHECK(static_cast<int>(chunk_ready.size()) == numChunks(),
                "chunk time vector arity mismatch");
    double ready = 0.0;
    for (int c : chunksOfLayer(layer_bytes, layer))
        ready = std::max(ready, chunk_ready[static_cast<std::size_t>(c)]);
    return ready;
}

std::vector<LayerChunkTable>
ChunkMapper::layerChunkTables(const std::vector<double>& layer_bytes) const
{
    std::vector<LayerChunkTable> tables;
    for (int c = numChunks() - 1; c >= 0; --c) {
        const auto part = static_cast<std::size_t>(
            geometry_[static_cast<std::size_t>(c)].part);
        if (tables.size() <= part)
            tables.resize(part + 1);
        tables[part].first_chunk = c;
    }
    std::vector<std::int64_t> bound(tables.size(), 0);
    for (int l = 0; l < static_cast<int>(layer_bytes.size()); ++l) {
        for (int c : chunksOfLayer(layer_bytes, l)) {
            const auto part = static_cast<std::size_t>(
                geometry_[static_cast<std::size_t>(c)].part);
            bound[part] = std::max<std::int64_t>(
                bound[part], c - tables[part].first_chunk + 1);
        }
        for (std::size_t p = 0; p < tables.size(); ++p)
            tables[p].bounds.push_back(bound[p]);
    }
    return tables;
}

} // namespace core
} // namespace ccube
