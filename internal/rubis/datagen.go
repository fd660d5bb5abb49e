package rubis

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"nose/internal/backend"
	"nose/internal/executor"
)

// dayZero is an arbitrary epoch for generated dates (seconds).
const dayZero = 1_400_000_000

// Generate builds a deterministic RUBiS dataset matching the model's
// entity counts and relationship fan-outs.
func Generate(cfg Config) (*backend.Dataset, error) {
	g := Graph(cfg)
	s := SizesFor(cfg)
	ds := backend.NewDataset(g)
	rng := rand.New(rand.NewSource(cfg.Seed))

	category := g.MustEntity("Category")
	region := g.MustEntity("Region")
	user := g.MustEntity("User")
	item := g.MustEntity("Item")
	bid := g.MustEntity("Bid")
	comment := g.MustEntity("Comment")
	buynow := g.MustEntity("BuyNow")
	old := g.MustEntity("OldItem")

	date := func() int64 { return dayZero + int64(rng.Intn(3650))*86_400 }

	for i := 0; i < s.Categories; i++ {
		if err := ds.AddEntity(category, map[string]backend.Value{
			"CategoryID": i, "CategoryName": fmt.Sprintf("category%d", i), "Dummy": 1,
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Regions; i++ {
		if err := ds.AddEntity(region, map[string]backend.Value{
			"RegionID": i, "RegionName": fmt.Sprintf("region%d", i),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Users; i++ {
		if err := ds.AddEntity(user, map[string]backend.Value{
			"UserID":       i,
			"UserNickname": fmt.Sprintf("user%d", i),
			"UserEmail":    fmt.Sprintf("user%d@rubis.example", i),
			"UserRating":   rng.Intn(40) - 10,
			"UserBalance":  float64(rng.Intn(100_000)) / 100,
			"UserCreated":  date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(region.Edge("Users"), int64(rng.Intn(s.Regions)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Items; i++ {
		price := float64(1+rng.Intn(5000)) / 1
		if err := ds.AddEntity(item, map[string]backend.Value{
			"ItemID":           i,
			"ItemName":         fmt.Sprintf("item%d", i),
			"ItemDescription":  fmt.Sprintf("description of item %d", i),
			"ItemInitialPrice": price,
			"ItemQuantity":     1 + rng.Intn(10),
			"ItemReservePrice": price * 1.1,
			"ItemBuyNowPrice":  price * 1.5,
			"ItemNbOfBids":     rng.Intn(100),
			"ItemMaxBid":       price * (1 + rng.Float64()),
			"ItemStartDate":    date(),
			"ItemEndDate":      date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(category.Edge("Items"), int64(rng.Intn(s.Categories)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("ItemsSold"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Bids; i++ {
		if err := ds.AddEntity(bid, map[string]backend.Value{
			"BidID": i, "BidQty": 1 + rng.Intn(5),
			"BidAmount": float64(1 + rng.Intn(5000)), "BidDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("Bids"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("Bids"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Comments; i++ {
		if err := ds.AddEntity(comment, map[string]backend.Value{
			"CommentID": i, "CommentRating": rng.Intn(11) - 5,
			"CommentDate": date(), "CommentText": fmt.Sprintf("comment %d", i),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("CommentsReceived"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("CommentsSent"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("Comments"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.BuyNows; i++ {
		if err := ds.AddEntity(buynow, map[string]backend.Value{
			"BuyNowID": i, "BuyNowQty": 1 + rng.Intn(5), "BuyNowDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("BuyNows"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("BuyNows"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.OldItems; i++ {
		if err := ds.AddEntity(old, map[string]backend.Value{
			"OldItemID": i, "OldItemName": fmt.Sprintf("old item %d", i), "OldItemEndDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("OldItemsBought"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// ParamSource generates parameter bindings for transaction executions:
// existing ids for reads, fresh ids for inserts, deterministically from
// a seed.
type ParamSource struct {
	sizes Sizes
	rng   *rand.Rand
	// fresh id counters start above the generated ranges.
	nextBid, nextBuyNow, nextComment, nextItem, nextUser atomic.Int64
}

// NewParamSource returns a parameter source for a configuration.
func NewParamSource(cfg Config, seed int64) *ParamSource {
	s := SizesFor(cfg)
	ps := &ParamSource{sizes: s, rng: rand.New(rand.NewSource(seed))}
	ps.nextBid.Store(int64(s.Bids))
	ps.nextBuyNow.Store(int64(s.BuyNows))
	ps.nextComment.Store(int64(s.Comments))
	ps.nextItem.Store(int64(s.Items))
	ps.nextUser.Store(int64(s.Users))
	return ps
}

// Params draws bindings for one execution of the named transaction,
// covering every parameter its statements use. Each execution makes the
// same rng draws in the same order whatever the transaction, then takes
// a fresh id for an insert's key. The drawn values sit in the fixed
// slots of one small struct, boxed as they are drawn so that reading
// them allocates nothing; the constants and the name to slot mapping
// are a switch. The executor reads each parameter a statement uses once,
// so no map is built or hashed.
func (ps *ParamSource) Params(txn string) executor.Params {
	r := ps.rng
	date := int64(dayZero + int64(r.Intn(3650))*86_400)
	// Go evaluates the literal's elements left to right: the draws follow
	// its order, so reordering it changes every stream.
	d := &drawn{
		item:      int64(r.Intn(ps.sizes.Items)),
		user:      int64(r.Intn(ps.sizes.Users)),
		touser:    int64(r.Intn(ps.sizes.Users)),
		category:  int64(r.Intn(ps.sizes.Categories)),
		region:    int64(r.Intn(ps.sizes.Regions)),
		now:       date,
		end:       date + 30*86_400,
		qty:       int64(1 + r.Intn(5)),
		newqty:    int64(r.Intn(10)),
		amount:    float64(1 + r.Intn(5000)),
		rating:    int64(r.Intn(11) - 5),
		newrating: int64(r.Intn(40) - 10),
		nb:        int64(r.Intn(100)),
		price:     float64(1 + r.Intn(5000)),
		rprice:    float64(1 + r.Intn(5000)),
		bnprice:   float64(1 + r.Intn(5000)),
	}
	switch txn {
	case "StoreBid":
		d.freshName, d.fresh = "bid", ps.nextBid.Add(1)
	case "StoreBuyNow":
		d.freshName, d.fresh = "bnid", ps.nextBuyNow.Add(1)
	case "StoreComment":
		d.freshName, d.fresh = "cid", ps.nextComment.Add(1)
	case "RegisterItem":
		d.item = ps.nextItem.Add(1)
	case "RegisterUser":
		d.user = ps.nextUser.Add(1)
	}
	return d
}

// drawn is one execution's bindings: a slot per drawn parameter, and the
// fresh id of StoreBid, StoreBuyNow or StoreComment under its name.
type drawn struct {
	item, user, touser, category, region, now, end, qty, newqty backend.Value
	amount, rating, newrating, nb, price, rprice, bnprice       backend.Value
	fresh                                                       backend.Value
	freshName                                                   string
}

// Param implements executor.Params.
func (d *drawn) Param(name string) (backend.Value, bool) {
	switch name {
	case "item":
		return d.item, true
	case "user":
		return d.user, true
	case "touser":
		return d.touser, true
	case "category":
		return d.category, true
	case "region":
		return d.region, true
	case "now":
		return d.now, true
	case "end":
		return d.end, true
	case "qty":
		return d.qty, true
	case "newqty":
		return d.newqty, true
	case "amount":
		return d.amount, true
	case "rating":
		return d.rating, true
	case "newrating":
		return d.newrating, true
	case "nb":
		return d.nb, true
	case "price":
		return d.price, true
	case "rprice":
		return d.rprice, true
	case "bnprice":
		return d.bnprice, true
	case "bid", "bnid", "cid":
		if name == d.freshName {
			return d.fresh, true
		}
	case "dummy":
		return int64(1), true
	case "text":
		return "generated comment", true
	case "maxbid", "balance":
		return float64(0), true
	case "name":
		return "new item", true
	case "desc":
		return "new item description", true
	case "nick":
		return "new user", true
	case "email":
		return "new@rubis.example", true
	}
	return nil, false
}
