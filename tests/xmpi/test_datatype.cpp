/// @file test_datatype.cpp
/// @brief Unit tests for xmpi datatypes: constructors, layout queries, and
/// the pack/unpack engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::BuiltinType;
using xmpi::Datatype;

TEST(Datatype, BuiltinSizesMatchCxxTypes) {
    EXPECT_EQ(XMPI_INT->size(), sizeof(int));
    EXPECT_EQ(XMPI_DOUBLE->size(), sizeof(double));
    EXPECT_EQ(XMPI_CHAR->size(), sizeof(char));
    EXPECT_EQ(XMPI_LONG_LONG->size(), sizeof(long long));
    EXPECT_EQ(XMPI_UNSIGNED_LONG->size(), sizeof(unsigned long));
    EXPECT_EQ(XMPI_FLOAT->size(), sizeof(float));
    EXPECT_EQ(XMPI_CXX_BOOL->size(), sizeof(bool));
    EXPECT_EQ(XMPI_BYTE->size(), 1u);
}

TEST(Datatype, BuiltinExtentEqualsSize) {
    EXPECT_EQ(XMPI_INT->extent(), static_cast<std::ptrdiff_t>(sizeof(int)));
    EXPECT_TRUE(XMPI_INT->is_builtin());
    EXPECT_TRUE(XMPI_INT->is_homogeneous());
    EXPECT_EQ(XMPI_INT->elements_per_item(), 1u);
}

TEST(Datatype, ContiguousMergesAdjacentRuns) {
    XMPI_Datatype type = nullptr;
    ASSERT_EQ(XMPI_Type_contiguous(5, XMPI_INT, &type), XMPI_SUCCESS);
    EXPECT_EQ(type->size(), 5 * sizeof(int));
    EXPECT_EQ(type->extent(), static_cast<std::ptrdiff_t>(5 * sizeof(int)));
    // Adjacent int runs merge into a single typemap block.
    EXPECT_EQ(type->typemap().size(), 1u);
    EXPECT_EQ(type->typemap().front().count, 5u);
    EXPECT_TRUE(type->is_homogeneous());
    XMPI_Type_free(&type);
    EXPECT_EQ(type, XMPI_DATATYPE_NULL);
}

TEST(Datatype, ContiguousPackUnpackRoundtrip) {
    XMPI_Datatype type = nullptr;
    XMPI_Type_contiguous(4, XMPI_INT, &type);
    XMPI_Type_commit(&type);
    std::vector<int> const source{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::byte> packed(type->packed_size(2));
    type->pack(source.data(), 2, packed.data());
    std::vector<int> target(8, 0);
    type->unpack(packed.data(), 2, target.data());
    EXPECT_EQ(source, target);
    XMPI_Type_free(&type);
}

TEST(Datatype, VectorSelectsStridedBlocks) {
    // 3 blocks of 2 ints with stride 4 ints: selects indices
    // {0,1, 4,5, 8,9} out of a 12-int buffer.
    XMPI_Datatype type = nullptr;
    ASSERT_EQ(XMPI_Type_vector(3, 2, 4, XMPI_INT, &type), XMPI_SUCCESS);
    EXPECT_EQ(type->size(), 6 * sizeof(int));
    std::vector<int> source(12);
    std::iota(source.begin(), source.end(), 0);
    std::vector<std::byte> packed(type->packed_size(1));
    type->pack(source.data(), 1, packed.data());
    std::array<int, 6> extracted{};
    std::memcpy(extracted.data(), packed.data(), packed.size());
    EXPECT_EQ(extracted, (std::array<int, 6>{0, 1, 4, 5, 8, 9}));
    XMPI_Type_free(&type);
}

TEST(Datatype, VectorUnpackScattersBack) {
    XMPI_Datatype type = nullptr;
    XMPI_Type_vector(2, 1, 3, XMPI_INT, &type);
    std::array<int, 2> const dense{42, 43};
    std::vector<std::byte> packed(type->packed_size(1));
    std::memcpy(packed.data(), dense.data(), packed.size());
    std::vector<int> target(6, -1);
    type->unpack(packed.data(), 1, target.data());
    EXPECT_EQ(target, (std::vector<int>{42, -1, -1, 43, -1, -1}));
    XMPI_Type_free(&type);
}

TEST(Datatype, IndexedType) {
    int const blocklengths[] = {2, 1};
    int const displacements[] = {1, 5};
    XMPI_Datatype type = nullptr;
    ASSERT_EQ(XMPI_Type_indexed(2, blocklengths, displacements, XMPI_INT, &type), XMPI_SUCCESS);
    EXPECT_EQ(type->size(), 3 * sizeof(int));
    std::vector<int> source(6);
    std::iota(source.begin(), source.end(), 10);
    std::vector<std::byte> packed(type->packed_size(1));
    type->pack(source.data(), 1, packed.data());
    std::array<int, 3> extracted{};
    std::memcpy(extracted.data(), packed.data(), packed.size());
    EXPECT_EQ(extracted, (std::array<int, 3>{11, 12, 15}));
    XMPI_Type_free(&type);
}

struct Mixed {
    int a;
    double b;
    char c;
};

TEST(Datatype, StructTypeSkipsAlignmentGaps) {
    int const blocklengths[] = {1, 1, 1};
    XMPI_Aint const displacements[] = {
        static_cast<XMPI_Aint>(offsetof(Mixed, a)),
        static_cast<XMPI_Aint>(offsetof(Mixed, b)),
        static_cast<XMPI_Aint>(offsetof(Mixed, c)),
    };
    XMPI_Datatype const types[] = {XMPI_INT, XMPI_DOUBLE, XMPI_CHAR};
    XMPI_Datatype type = nullptr;
    ASSERT_EQ(
        XMPI_Type_create_struct(3, blocklengths, displacements, types, &type), XMPI_SUCCESS);
    // size counts only the significant bytes, not the padding.
    EXPECT_EQ(type->size(), sizeof(int) + sizeof(double) + sizeof(char));
    EXPECT_FALSE(type->is_homogeneous());

    // Struct extent must be resized to sizeof(Mixed) for use in arrays.
    XMPI_Datatype resized = nullptr;
    ASSERT_EQ(
        XMPI_Type_create_resized(type, 0, static_cast<XMPI_Aint>(sizeof(Mixed)), &resized),
        XMPI_SUCCESS);
    EXPECT_EQ(resized->extent(), static_cast<std::ptrdiff_t>(sizeof(Mixed)));

    Mixed const source[2] = {{1, 2.5, 'x'}, {3, 4.5, 'y'}};
    std::vector<std::byte> packed(resized->packed_size(2));
    resized->pack(source, 2, packed.data());
    Mixed target[2] = {};
    resized->unpack(packed.data(), 2, target);
    EXPECT_EQ(target[0].a, 1);
    EXPECT_EQ(target[0].b, 2.5);
    EXPECT_EQ(target[0].c, 'x');
    EXPECT_EQ(target[1].a, 3);
    EXPECT_EQ(target[1].b, 4.5);
    EXPECT_EQ(target[1].c, 'y');
    XMPI_Type_free(&resized);
    XMPI_Type_free(&type);
}

TEST(Datatype, ContiguousBytesType) {
    auto* type = Datatype::contiguous_bytes(24);
    EXPECT_EQ(type->size(), 24u);
    EXPECT_EQ(type->extent(), 24);
    EXPECT_TRUE(type->is_homogeneous());
    EXPECT_EQ(type->elements_per_item(), 24u);
    type->release();
}

TEST(Datatype, TypeSizeAndExtentQueries) {
    XMPI_Datatype type = nullptr;
    XMPI_Type_vector(2, 3, 5, XMPI_DOUBLE, &type);
    int size = 0;
    XMPI_Type_size(type, &size);
    EXPECT_EQ(size, static_cast<int>(6 * sizeof(double)));
    XMPI_Aint lb = -1;
    XMPI_Aint extent = -1;
    XMPI_Type_get_extent(type, &lb, &extent);
    EXPECT_EQ(lb, 0);
    EXPECT_EQ(extent, static_cast<XMPI_Aint>((5 + 3) * sizeof(double)));
    XMPI_Type_free(&type);
}

TEST(Datatype, RefcountKeepsTypeAliveAcrossRelease) {
    auto* type = Datatype::contiguous(3, *XMPI_INT);
    type->retain();
    type->release(); // still one reference left
    EXPECT_EQ(type->size(), 3 * sizeof(int));
    type->release();
}

TEST(Datatype, NestedConstructorComposition) {
    // vector of contiguous: 2 blocks of (3 ints), stride 2 elements.
    XMPI_Datatype inner = nullptr;
    XMPI_Type_contiguous(3, XMPI_INT, &inner);
    XMPI_Datatype outer = nullptr;
    XMPI_Type_vector(2, 1, 2, inner, &outer);
    EXPECT_EQ(outer->size(), 6 * sizeof(int));
    std::vector<int> source(12);
    std::iota(source.begin(), source.end(), 0);
    std::vector<std::byte> packed(outer->packed_size(1));
    outer->pack(source.data(), 1, packed.data());
    std::array<int, 6> extracted{};
    std::memcpy(extracted.data(), packed.data(), packed.size());
    EXPECT_EQ(extracted, (std::array<int, 6>{0, 1, 2, 6, 7, 8}));
    XMPI_Type_free(&outer);
    XMPI_Type_free(&inner);
}

TEST(Datatype, ContiguousPackIsTheSourceBytes) {
    // Odd byte count: the contiguous fast path copies the whole span, not a
    // multiple of some word size.
    constexpr std::size_t kBytes = 4097;
    std::vector<std::byte> source(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i) {
        source[i] = static_cast<std::byte>(i * 7 + 3);
    }
    ASSERT_TRUE(XMPI_BYTE->is_contiguous());
    std::vector<std::byte> packed(XMPI_BYTE->packed_size(kBytes), std::byte{0xEE});
    XMPI_BYTE->pack(source.data(), kBytes, packed.data());
    EXPECT_EQ(packed, source);
    std::vector<std::byte> unpacked(kBytes, std::byte{0xEE});
    XMPI_BYTE->unpack(packed.data(), kBytes, unpacked.data());
    EXPECT_EQ(unpacked, source);

    auto* record = Datatype::contiguous_bytes(24);
    ASSERT_TRUE(record->is_contiguous());
    std::vector<std::byte> records(24 * 3);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i] = static_cast<std::byte>(255 - i);
    }
    std::vector<std::byte> records_packed(record->packed_size(3));
    record->pack(records.data(), 3, records_packed.data());
    EXPECT_EQ(records_packed, records);
    record->release();
}

/// @brief Packs two elements of @c type from @c source and unpacks them into
/// a 0xEE-filled copy: the significant bytes must come back, every other
/// byte must stay 0xEE.
void expect_typemap_roundtrip(Datatype const& type, std::vector<std::byte> const& source) {
    std::vector<std::byte> packed(type.packed_size(2));
    type.pack(source.data(), 2, packed.data());
    std::vector<std::byte> target(source.size(), std::byte{0xEE});
    type.unpack(packed.data(), 2, target.data());
    std::vector<bool> significant(source.size(), false);
    for (std::ptrdiff_t element = 0; element < 2; ++element) {
        for (auto const& block: type.typemap()) {
            std::size_t const first =
                static_cast<std::size_t>(element * type.extent() + block.offset);
            for (std::size_t b = 0; b < block.count * xmpi::builtin_size(block.elem); ++b) {
                significant[first + b] = true;
            }
        }
    }
    for (std::size_t i = 0; i < source.size(); ++i) {
        EXPECT_EQ(target[i], significant[i] ? source[i] : std::byte{0xEE}) << "byte " << i;
    }
}

TEST(Datatype, DenseLookingTypesStillWalkTheTypemap) {
    std::vector<std::byte> source(64);
    for (std::size_t i = 0; i < source.size(); ++i) {
        source[i] = static_cast<std::byte>(i + 1);
    }

    // One int per 8-byte stride: extent > size.
    auto* padded = Datatype::create_resized(*XMPI_INT, 0, 8);
    EXPECT_FALSE(padded->is_contiguous());
    expect_typemap_roundtrip(*padded, source);
    padded->release();

    // extent == size, but the lower bound is nonzero.
    auto* shifted = Datatype::create_resized(*XMPI_INT, 4, 4);
    EXPECT_FALSE(shifted->is_contiguous());
    std::vector<std::byte> packed(shifted->packed_size(3));
    shifted->pack(source.data(), 3, packed.data());
    EXPECT_TRUE(std::equal(packed.begin(), packed.end(), source.begin()));
    shifted->release();

    // struct {int; double} laid out at offsets 0 and 8: a 4-byte gap.
    int const blocklengths[] = {1, 1};
    XMPI_Aint const displacements[] = {0, 8};
    XMPI_Datatype const types[] = {XMPI_INT, XMPI_DOUBLE};
    XMPI_Datatype gapped = nullptr;
    ASSERT_EQ(
        XMPI_Type_create_struct(2, blocklengths, displacements, types, &gapped), XMPI_SUCCESS);
    EXPECT_FALSE(gapped->is_contiguous());
    expect_typemap_roundtrip(*gapped, source);
    XMPI_Type_free(&gapped);
}

TEST(Datatype, ZeroCountPackAndUnpackAreNoOps) {
    auto* record = Datatype::contiguous_bytes(24);
    XMPI_Datatype vector = nullptr;
    ASSERT_EQ(XMPI_Type_vector(2, 1, 3, XMPI_INT, &vector), XMPI_SUCCESS);
    for (Datatype const* type: {static_cast<Datatype const*>(XMPI_BYTE),
                                static_cast<Datatype const*>(record),
                                static_cast<Datatype const*>(vector)}) {
        type->pack(nullptr, 0, nullptr);
        type->unpack(nullptr, 0, nullptr);
    }
    XMPI_Type_free(&vector);
    record->release();
}

} // namespace
