/**
 * @file
 * Shared application classes and graph builders for the serializer
 * and Skyway tests.
 */

#ifndef SKYWAY_TESTS_TESTCLASSES_HH
#define SKYWAY_TESTS_TESTCLASSES_HH

#include <unordered_set>
#include <vector>

#include "heap/objectops.hh"
#include "skyway/jvm.hh"

namespace skyway
{
namespace testing_support
{

/** Catalog with bootstrap + Skyway internals + the test classes. */
inline ClassCatalog
makeTestCatalog()
{
    ClassCatalog cat = makeStandardCatalog();
    cat.define(ClassDef{
        "test.Point",
        "",
        {
            {"x", FieldType::Int, ""},
            {"y", FieldType::Int, ""},
        },
    });
    cat.define(ClassDef{
        "test.Point3D",
        "test.Point",
        {
            {"z", FieldType::Int, ""},
        },
    });
    cat.define(ClassDef{
        "test.Node",
        "",
        {
            {"value", FieldType::Long, ""},
            {"next", FieldType::Ref, "test.Node"},
        },
    });
    cat.define(ClassDef{
        "test.Pair",
        "",
        {
            {"left", FieldType::Ref, ""},
            {"right", FieldType::Ref, ""},
        },
    });
    cat.define(ClassDef{
        "test.Mixed",
        "",
        {
            {"flag", FieldType::Boolean, ""},
            {"b", FieldType::Byte, ""},
            {"c", FieldType::Char, ""},
            {"s", FieldType::Short, ""},
            {"i", FieldType::Int, ""},
            {"l", FieldType::Long, ""},
            {"f", FieldType::Float, ""},
            {"d", FieldType::Double, ""},
            {"name", FieldType::Ref, "java.lang.String"},
            {"data", FieldType::Ref, "[I"},
        },
    });
    return cat;
}

/** Call @p visit once for every object reachable from @p root. */
template <typename Visit>
void
forEachReachable(const ManagedHeap &h, Address root, Visit &&visit)
{
    if (root == nullAddr)
        return;
    std::vector<Address> todo{root};
    std::unordered_set<Address> seen{root};
    while (!todo.empty()) {
        Address a = todo.back();
        todo.pop_back();
        visit(a);
        forEachRefSlot(h, a, [&](std::size_t off) {
            Address t = h.loadRef(a, off);
            if (t != nullAddr && seen.insert(t).second)
                todo.push_back(t);
        });
    }
}

/** Build a test.Point rooted nowhere (caller roots if needed). */
inline Address
makePoint(Jvm &jvm, std::int32_t x, std::int32_t y)
{
    Klass *k = jvm.klasses().load("test.Point");
    Address p = jvm.heap().allocateInstance(k);
    field::set<std::int32_t>(jvm.heap(), p, k->requireField("x"), x);
    field::set<std::int32_t>(jvm.heap(), p, k->requireField("y"), y);
    return p;
}

/** Build a fully populated test.Mixed (rooted via @p roots). */
inline Address
makeMixed(Jvm &jvm, LocalRoots &roots, const std::string &name)
{
    Address str = jvm.builder().makeString(name);
    std::size_t rs = roots.push(str);
    Address arr = jvm.builder().makeIntArray({1, -2, 3, -4});
    std::size_t ra = roots.push(arr);

    Klass *k = jvm.klasses().load("test.Mixed");
    Address m = jvm.heap().allocateInstance(k);
    ManagedHeap &h = jvm.heap();
    field::set<std::uint8_t>(h, m, k->requireField("flag"), 1);
    field::set<std::int8_t>(h, m, k->requireField("b"), -7);
    field::set<std::uint16_t>(h, m, k->requireField("c"), 'Q');
    field::set<std::int16_t>(h, m, k->requireField("s"), -1234);
    field::set<std::int32_t>(h, m, k->requireField("i"), 123456789);
    field::set<std::int64_t>(h, m, k->requireField("l"),
                             -987654321012345ll);
    field::set<float>(h, m, k->requireField("f"), 2.5f);
    field::set<double>(h, m, k->requireField("d"), -3.25);
    field::setRef(h, m, k->requireField("name"), roots.get(rs));
    field::setRef(h, m, k->requireField("data"), roots.get(ra));
    return m;
}

/** Build a linked list of test.Node with values n-1..0 -> null. */
inline Address
makeList(Jvm &jvm, LocalRoots &roots, int n)
{
    Klass *k = jvm.klasses().load("test.Node");
    std::size_t slot = roots.push(nullAddr);
    for (int i = 0; i < n; ++i) {
        Address node = jvm.heap().allocateInstance(k);
        field::set<std::int64_t>(jvm.heap(), node,
                                 k->requireField("value"), i);
        field::setRef(jvm.heap(), node, k->requireField("next"),
                      roots.get(slot));
        roots.set(slot, node);
    }
    return roots.get(slot);
}

/** A pair sharing one child on both sides. */
inline Address
makeSharedPair(Jvm &jvm, LocalRoots &roots)
{
    Address shared = makePoint(jvm, 5, 6);
    std::size_t rs = roots.push(shared);
    Klass *k = jvm.klasses().load("test.Pair");
    Address p = jvm.heap().allocateInstance(k);
    field::setRef(jvm.heap(), p, k->requireField("left"),
                  roots.get(rs));
    field::setRef(jvm.heap(), p, k->requireField("right"),
                  roots.get(rs));
    return p;
}

/** A two-node reference cycle. */
inline Address
makeCycle(Jvm &jvm, LocalRoots &roots)
{
    Klass *k = jvm.klasses().load("test.Node");
    Address a = jvm.heap().allocateInstance(k);
    std::size_t ra = roots.push(a);
    Address b = jvm.heap().allocateInstance(k);
    std::size_t rb = roots.push(b);
    ManagedHeap &h = jvm.heap();
    field::set<std::int64_t>(h, roots.get(ra), k->requireField("value"),
                             1);
    field::set<std::int64_t>(h, roots.get(rb), k->requireField("value"),
                             2);
    field::setRef(h, roots.get(ra), k->requireField("next"),
                  roots.get(rb));
    field::setRef(h, roots.get(rb), k->requireField("next"),
                  roots.get(ra));
    return roots.get(ra);
}

} // namespace testing_support
} // namespace skyway

#endif // SKYWAY_TESTS_TESTCLASSES_HH
