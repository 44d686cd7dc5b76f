/**
 * @file
 * Tests for global class numbering (paper Algorithm 1): driver
 * numbering, worker view pulls, lookup-on-miss, consistency of IDs
 * across nodes, reverse lookup on stale views, load hooks, and the
 * "class string crosses the wire at most once per class per machine"
 * property.
 */

#include <gtest/gtest.h>

#include <thread>

#include "support/bytebuffer.hh"
#include "typereg/registry.hh"

namespace skyway
{
namespace
{

class TypeRegTest : public ::testing::Test
{
  protected:
    TypeRegTest() : net_(3)
    {
        defineBootstrapClasses(cat_);
        cat_.define(ClassDef{"app.Record", "", {{"id", FieldType::Int,
                                                 ""}}});
        cat_.define(ClassDef{"app.Extra", "", {}});
        cat_.define(ClassDef{"app.Late", "", {}});
        driverKt_ = std::make_unique<KlassTable>(cat_);
        workerKtA_ = std::make_unique<KlassTable>(cat_);
        workerKtB_ = std::make_unique<KlassTable>(cat_);
    }

    ClassCatalog cat_;
    ClusterNetwork net_;
    std::unique_ptr<KlassTable> driverKt_, workerKtA_, workerKtB_;
};

TEST_F(TypeRegTest, DriverNumbersPreloadedClasses)
{
    driverKt_->load("java.lang.String");
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    EXPECT_EQ(driver.size(), 2u); // field types load lazily
    EXPECT_NE(driverKt_->findLoaded("java.lang.String")->tid(),
              Klass::unregisteredTid);
    EXPECT_NE(driverKt_->findLoaded("app.Record")->tid(),
              Klass::unregisteredTid);
}

TEST_F(TypeRegTest, WorkerPullsViewAtStartup)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    EXPECT_EQ(worker.viewSize(), driver.size());
    EXPECT_EQ(driver.stats().viewRequestsServed, 1u);
    // The view already covers app.Record: loading it issues no
    // remote lookup.
    Klass *k = workerKtA_->load("app.Record");
    EXPECT_EQ(k->tid(), driverKt_->findLoaded("app.Record")->tid());
    EXPECT_EQ(worker.stats().remoteLookupsIssued, 0u);
}

TEST_F(TypeRegTest, IdsConsistentAcrossNodes)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker wa(net_, 1, 0, *workerKtA_);
    TypeRegistryWorker wb(net_, 2, 0, *workerKtB_);

    Klass *ka = workerKtA_->load("app.Extra"); // miss on both views
    Klass *kb = workerKtB_->load("app.Extra");
    EXPECT_EQ(ka->tid(), kb->tid());
    EXPECT_NE(ka, kb) << "distinct meta objects, same global id";
    EXPECT_EQ(driver.stats().lookupsServed, 2u);
}

TEST_F(TypeRegTest, LookupCachedAfterFirstMiss)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    std::int32_t id1 = worker.idForClass("app.Late");
    std::int32_t id2 = worker.idForClass("app.Late");
    EXPECT_EQ(id1, id2);
    EXPECT_EQ(worker.stats().remoteLookupsIssued, 1u);
    // Exactly once: the driver served as many LOOKUPs as were issued.
    EXPECT_EQ(driver.stats().lookupsServed,
              worker.stats().remoteLookupsIssued);
    // At-most-once per class per machine: exactly one class string
    // crossed the wire for app.Late from this worker.
    EXPECT_EQ(worker.stats().classStringsSent, 1u);
}

/** Handlers run on the requester's thread, so requesters on
 *  different threads run the driver's daemon concurrently (the case
 *  the TSan gate covers). Every LOOKUP is still served exactly once
 *  and every node agrees on the ids. */
TEST_F(TypeRegTest, ConcurrentRequestersServedExactlyOnce)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker wa(net_, 1, 0, *workerKtA_);
    TypeRegistryWorker wb(net_, 2, 0, *workerKtB_);
    const char *names[] = {"app.Record", "app.Extra", "app.Late"};
    std::int32_t ids[2][2][3];
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
        for (int t = 0; t < 2; ++t) {
            threads.emplace_back([&, w, t] {
                TypeRegistryWorker &worker = w == 0 ? wa : wb;
                for (int c = 0; c < 3; ++c)
                    ids[w][t][c] = worker.idForClass(names[(c + t) % 3]);
            });
        }
    }
    for (std::thread &th : threads)
        th.join();
    for (int w = 0; w < 2; ++w) {
        for (int t = 0; t < 2; ++t) {
            for (int c = 0; c < 3; ++c)
                EXPECT_EQ(ids[w][t][c],
                          driver.idForClass(names[(c + t) % 3]));
        }
    }
    EXPECT_EQ(driver.size(), 3u);
    EXPECT_EQ(driver.stats().lookupsServed,
              wa.stats().remoteLookupsIssued +
                  wb.stats().remoteLookupsIssued);
}

TEST_F(TypeRegTest, KlassForIdResolvesAndLoads)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    std::int32_t id = driverKt_->findLoaded("app.Record")->tid();

    EXPECT_EQ(workerKtA_->findLoaded("app.Record"), nullptr);
    Klass *k = worker.klassForId(id);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), "app.Record");
    EXPECT_EQ(k->tid(), id);
    EXPECT_EQ(workerKtA_->findLoaded("app.Record"), k);
}

TEST_F(TypeRegTest, StaleViewReverseLookup)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker wa(net_, 1, 0, *workerKtA_);
    // B attaches, then A registers a brand-new class: B's view is
    // stale for that id.
    TypeRegistryWorker wb(net_, 2, 0, *workerKtB_);
    std::int32_t late = wa.idForClass("app.Late");

    Klass *k = wb.klassForId(late);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), "app.Late");
    EXPECT_EQ(driver.stats().reverseLookupsServed, 1u);
}

TEST_F(TypeRegTest, ArrayClassesAreNumbered)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    Klass *ia = workerKtA_->arrayOfPrimitive(FieldType::Int);
    EXPECT_NE(ia->tid(), Klass::unregisteredTid);
    EXPECT_EQ(worker.klassForId(ia->tid()), ia);
}

TEST_F(TypeRegTest, DriverResolvesItsOwnIds)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    std::int32_t id = driver.idForClass("app.Record");
    EXPECT_EQ(driver.klassForId(id)->name(), "app.Record");
    EXPECT_EQ(driver.nameForId(id), "app.Record");
    EXPECT_DEATH(driver.nameForId(99999), "unknown type id");
}

TEST_F(TypeRegTest, MaxAssignedIdTracksDenseDriverIds)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    EXPECT_EQ(driver.maxAssignedId(), -1);
    std::int32_t a = driver.idForClass("app.Record");
    EXPECT_EQ(driver.maxAssignedId(), a);
    std::int32_t b = driver.idForClass("app.Extra");
    EXPECT_EQ(driver.maxAssignedId(), b);
    EXPECT_EQ(driver.maxAssignedId(),
              static_cast<std::int32_t>(driver.size()) - 1);
}

TEST_F(TypeRegTest, MaxAssignedIdGrowsWithStaleViewLookups)
{
    // The worker's view may be sparse: ids assigned after the view
    // pull arrive out of order through lookups and reverse lookups,
    // and maxAssignedId must track the high-water mark — receivers
    // pre-size their tid caches from it.
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    EXPECT_EQ(worker.maxAssignedId(), driver.maxAssignedId());

    // Another worker registers new classes the first view missed.
    TypeRegistryWorker late(net_, 2, 0, *workerKtB_);
    workerKtB_->load("app.Extra");
    std::int32_t lateId = workerKtB_->load("app.Late")->tid();
    EXPECT_LT(worker.maxAssignedId(), lateId) << "view is stale";

    // A reverse lookup on the stale view raises the high-water mark.
    EXPECT_EQ(worker.nameForId(lateId), "app.Late");
    EXPECT_EQ(worker.maxAssignedId(), lateId);
    EXPECT_EQ(driver.maxAssignedId(), lateId);
}

TEST_F(TypeRegTest, ViewEncodingRoundTrips)
{
    driverKt_->load("app.Record");
    driverKt_->load("app.Extra");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    auto view = driver.encodeView();
    EXPECT_FALSE(view.empty());
    // A worker constructed afterwards decodes every entry.
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    EXPECT_EQ(worker.viewSize(), driver.size());
    EXPECT_EQ(worker.nameForId(driver.idForClass("app.Extra")),
              "app.Extra");

    // The REQUEST_VIEW reply is exactly the varint class count
    // followed by the encoded names in id order — nothing else.
    VectorSink expected;
    expected.writeVarU64(driver.size());
    for (std::size_t id = 0; id < driver.size(); ++id)
        expected.writeString(
            driver.nameForId(static_cast<std::int32_t>(id)));
    EXPECT_EQ(view, expected.takeBytes());
    EXPECT_EQ(net_.request(2, 0, regmsg::requestView, {}),
              driver.encodeView());
}

TEST_F(TypeRegTest, LookupRepliesCarryOnlyIdAndName)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);

    // LOOKUP (here registering a class the driver never loaded): the
    // reply is exactly the 4-byte id.
    VectorSink ask;
    ask.writeString("app.Late");
    auto reply = net_.request(1, 0, regmsg::lookup, ask.takeBytes());
    VectorSink id;
    id.writeI32(driver.idForClass("app.Late"));
    EXPECT_EQ(reply, id.takeBytes());
    // Answering it registers a name; it loads nothing on the driver.
    EXPECT_EQ(driverKt_->findLoaded("app.Late"), nullptr);

    // LOOKUP_NAME: the reply is exactly the encoded name.
    std::int32_t recordId = driver.idForClass("app.Record");
    VectorSink askName;
    askName.writeI32(recordId);
    reply = net_.request(1, 0, regmsg::lookupName, askName.takeBytes());
    VectorSink name;
    name.writeString("app.Record");
    EXPECT_EQ(reply, name.takeBytes());
}

} // namespace
} // namespace skyway
