package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}
import scala.util.Random

/** The read contract: concurrent queries against one index, and against one
  * deserialized TGM (as Spark tasks share a broadcast), answer exactly as
  * brute force.
  */
class ConcurrentReadSpec extends AnyFunSuite {

  private val Threads = 4
  private val Rounds = 40
  private val Deltas = Seq(0.3, 0.6, 0.9)
  private val K = 10

  private val rnd = new Random(61)
  private val db: Array[Array[Int]] =
    Array.fill(1500)(SetOps.canon(Seq.fill(rnd.nextInt(15) + 1)(rnd.nextInt(400))))
  private val grouping = Grouping.random(db.length, 70, 62)
  private val queries: Array[Array[Int]] = Array.tabulate(40) { i =>
    if (i % 2 == 0) db(rnd.nextInt(db.length))
    else SetOps.canon(Seq.fill(rnd.nextInt(15) + 1)(rnd.nextInt(420)))
  }
  private val brute = new BruteForce(db)
  private val expectedRange = queries.map(q => Deltas.map(d => brute.range(q, d).hits.toSet))
  private val expectedKnn = queries.map(q => brute.knn(q, K).hits.map(_.sim).sorted)

  /** Each round, `fresh()` makes the shared state, and `Threads` threads
    * started together run `check(state, query)` for every query, each in
    * its own order; the first reads of a new index race, as Spark tasks do
    * on a new broadcast. Returns the number of wrong answers.
    */
  private def concurrently[S](fresh: () => S)(check: (S, Int) => Boolean): Int = {
    val pool = Executors.newFixedThreadPool(Threads)
    try {
      (0 until Rounds).map { round =>
        val shared = fresh()
        val start = new CountDownLatch(1)
        val futures = (0 until Threads).map { t =>
          pool.submit(new Callable[Int] {
            def call(): Int = {
              val order = new Random(round * Threads + t).shuffle(queries.indices.toVector)
              start.await()
              order.count(i => !check(shared, i))
            }
          })
        }
        start.countDown()
        futures.map(_.get(120, TimeUnit.SECONDS)).sum
      }.sum
    } finally pool.shutdownNow()
  }

  test("concurrent range and kNN queries on one shared Les3Index equal brute force") {
    val wrong = concurrently(() => new Les3Index(db, grouping)) { (index, i) =>
      val q = queries(i)
      Deltas.indices.forall(j => index.range(q, Deltas(j)).hits.toSet == expectedRange(i)(j)) &&
        index.knn(q, K).hits.map(_.sim).sorted == expectedKnn(i)
    }
    assert(wrong == 0)
  }

  test("concurrent UB passes on one deserialized TGM prune exactly") {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(TGM.build(db, grouping))
    oos.close()
    def deserialized() = new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[TGM]
    val members = grouping.members
    // Range search as the Spark path runs it: prune on the broadcast TGM's
    // bounds, then verify the members of the groups that survive.
    val wrong = concurrently(() => deserialized()) { (tgm, i) =>
      val q = queries(i)
      val ubs = tgm.ubs(q)
      Deltas.indices.forall { j =>
        val hits = for {
          g <- 0 until tgm.nGroups if ubs(g) >= Deltas(j)
          sid <- members(g)
          sim = SetOps.jaccard(q, db(sid)) if sim >= Deltas(j)
        } yield Hit(sid, sim)
        hits.toSet == expectedRange(i)(j)
      }
    }
    assert(wrong == 0)
  }
}
