package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.io.IOModel

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.util.Random

/** The verification kernel: a member's overlap read against the query's
  * token bitmap, the per-thread scratch that holds it, and the kNN group
  * order.
  */
class GroupStoreSpec extends AnyFunSuite {

  private def check(name: String, prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, s"$name: $res")
  }

  /** Runs `body` on a thread of its own, whose scratch starts empty. */
  private def onFreshThread[T](body: => T): T = {
    val pool = Executors.newSingleThreadExecutor()
    try pool.submit(new Callable[T] { def call(): T = body }).get(120, TimeUnit.SECONDS)
    finally pool.shutdownNow()
  }

  // Tokens at the edges of the bitmap's 64-bit words, and around them.
  private val edges = Seq(0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192)
  private def genSet(top: Int): Gen[Array[Int]] =
    Gen.listOf(Gen.frequency(1 -> Gen.oneOf(edges), 2 -> Gen.choose(0, top))).map(SetOps.canon(_))

  test("bitmap overlap equals intersectSize for random sorted sets") {
    // Members drawn below 130 or below 400, queries likewise: each side
    // sometimes has tokens above every token of the other, and either
    // may be empty.
    val genDb = Gen.listOfN(12, Gen.oneOf(genSet(130), genSet(400), Gen.const(Array.empty[Int])))
    val genQ = Gen.oneOf(genSet(130), genSet(400), Gen.const(Array.empty[Int]))
    check("overlap", Prop.forAll(genDb, genQ, Gen.choose(1, 4)) { (sets, q, nGroups) =>
      val db = sets.toArray
      val store = new GroupStore(db, new Grouping(Array.tabulate(db.length)(_ % nGroups), nGroups),
                                 IOModel.InMemory)
      store.query(q) { v =>
        store.blocks.indices.forall { g =>
          val b = store.blocks(g)
          (0 until b.n).forall(i => v.overlap(g, i) == SetOps.intersectSize(q, db(b.sids(i))))
        }
      }
    })
  }

  test("the kNN group order is a stable sort on descending bounds, without boxing") {
    val rnd = new Random(91)
    val levels = Array(0.0, 0.125, 1.0 / 3, 0.5, 2.0 / 3, 1.0)
    for (trial <- 1 to 200) {
      val n = rnd.nextInt(70)
      // Few distinct values, so ties are many; a bounds array may be
      // longer than the groups it orders.
      val ubs = Array.fill(n + rnd.nextInt(3))(levels(rnd.nextInt(1 + trial % levels.length)))
      val expected = Array.range(0, n).sortBy(g => -ubs(g)).toSeq
      assert(GroupStore.descending(ubs, n).toSeq == expected, s"trial $trial: ${ubs.mkString(", ")}")
    }
  }

  test("the scratch is clear between queries on indexes of different universes and after inserts") {
    val rnd = new Random(92)
    def db(n: Int, universe: Int) =
      Array.fill(n)(SetOps.canon(Seq.fill(rnd.nextInt(12) + 1)(rnd.nextInt(universe))))
    val large = new Les3Index(db(300, 20000), Grouping.random(300, 16, 93))
    val small = new Les3Index(db(300, 90), Grouping.random(300, 16, 94))
    def queries(index: Les3Index, universe: Int) = Seq.tabulate(12) { i =>
      if (i % 2 == 0) index.db(rnd.nextInt(index.nSets))
      else SetOps.canon(Seq.fill(rnd.nextInt(12) + 1)(rnd.nextInt(universe)))
    }
    def exact(index: Les3Index, q: Array[Int]): Boolean = {
      val brute = new BruteForce(index.db)
      Seq(0.2, 0.5, 0.9).forall { d =>
        index.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
          brute.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
      } && index.knn(q, 10).hits.map(_.sim).sorted == brute.knn(q, 10).hits.map(_.sim).sorted
    }
    val wrong = onFreshThread {
      var wrong = Seq.empty[String]
      def round(name: String): Unit = {
        val pairs = queries(large, 21000).zip(queries(small, 100))
        for (((qLarge, qSmall), j) <- pairs.zipWithIndex) {
          if (!exact(large, qLarge)) wrong :+= s"$name large $j"
          if (!exact(small, qSmall)) wrong :+= s"$name small $j"
        }
      }
      round("before inserts")
      // A query that ends in an exception leaves the scratch clear too.
      intercept[IllegalStateException](small.store.query(small.db(0)) { v =>
        v.overlap(small.store.blocks.indexWhere(_.n > 0), 0)
        throw new IllegalStateException("stop")
      })
      // Open-universe inserts: each brings tokens above every token this
      // thread has read, so its group's block must raise its largest token.
      for (i <- 1 to 20) {
        small.insert(SetOps.canon(Seq(rnd.nextInt(90), 30000 + 1000 * i, 30000 + 1000 * i + rnd.nextInt(70))))
        round(s"after insert $i")
      }
      wrong
    }
    assert(wrong.isEmpty)
  }
}
