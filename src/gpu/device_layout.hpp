// Device-side record layouts the virtual GPU's transfer model charges for.
//
// The simulated H2D/D2H copies bill bytes, so the byte-per-record
// constants must track the real structures they serialize. Each constant
// is derived from (and static_asserted against) the host layout it
// mirrors, the same treatment io::kBinaryRecordSize received: a field
// added to geom::Point or KDTree::Node breaks the build here instead of
// silently skewing every transfer-time figure.
#pragma once

#include <cstdint>

#include "dbscan/labels.hpp"
#include "geometry/point.hpp"
#include "index/kdtree.hpp"

namespace mrscan::gpu {

/// H2D bytes per point: x/y coordinates plus one label/id word. The device
/// never sees the float weight — it rides through host memory only.
inline constexpr std::uint64_t kPointBytes =
    sizeof(geom::Point::x) + sizeof(geom::Point::y) + sizeof(geom::Point::id);
static_assert(kPointBytes == 24,
              "device point record must stay coordinates + one word");
static_assert(kPointBytes <= sizeof(geom::Point),
              "device point record cannot exceed the host Point");

/// H2D bytes per KD-tree node: the bounding box plus two child words
/// (left/right for internal nodes; leaf_id + point range base for leaves).
/// The host-side axis tag is encoded in a child word's spare bit on a real
/// device, so it adds no transfer bytes.
inline constexpr std::uint64_t kTreeNodeBytes =
    sizeof(index::KDTree::Node::box) +
    sizeof(index::KDTree::Node::left) + sizeof(index::KDTree::Node::right);
static_assert(kTreeNodeBytes == 40,
              "device node record must stay bbox + two child words");
static_assert(sizeof(geom::BBox) == 4 * sizeof(double),
              "BBox gained fields; revisit the device node layout");
static_assert(kTreeNodeBytes <= sizeof(index::KDTree::Node),
              "device node record cannot exceed the host Node");

/// D2H bytes per clustered point: the final cluster label.
inline constexpr std::uint64_t kLabelBytes = sizeof(dbscan::ClusterId);
static_assert(kLabelBytes == 8, "cluster labels are one 64-bit word");

}  // namespace mrscan::gpu
